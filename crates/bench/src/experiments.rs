//! Drivers regenerating every table and figure of the paper's §6, shared
//! by the `repro` binary and the criterion benches.

pub mod fig10;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
