//! One module per table/figure of the paper, plus ablations.
//!
//! Each module exposes a structured `report(...) -> Report` builder,
//! wired into the experiment registry ([`crate::registry()`]); text
//! comes from [`Report::render_text`](compstat_core::Report::render_text).

pub mod ablations;
pub mod fig01_alpha;
pub mod fig03_ops;
pub mod fig06_forward;
pub mod fig07_column;
pub mod fig09_pvalues;
pub mod fig10_vicar;
pub mod fig11_lofreq;
pub mod hdr_format;
pub mod model_tables;

pub use ablations::{ablation_es_sweep, ablation_lse_variants, ablation_scaled_forward};
pub use fig06_forward::figure6_sweep_likelihoods;
