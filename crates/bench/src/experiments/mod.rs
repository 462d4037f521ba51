//! One module per table/figure of the paper, plus ablations.
//!
//! Each module exposes a structured `report(...) -> Report` builder
//! (wired into [`crate::registry`]); most also keep a legacy
//! `figureN_report` string function, which renders the same report as
//! text.

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
pub use fig01_alpha::figure1_report;
pub use fig03_ops::figure3_report;
pub use fig06_forward::figure6_sweep_likelihoods;
pub use fig09_pvalues::figure9_report;
pub use fig10_vicar::figure10_report;
pub use fig11_lofreq::figure11_report;
pub use model_tables::{
    figure4_report, figure5_report, table1_report, table2_report, table3_report, table4_report,
};
