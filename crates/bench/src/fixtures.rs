//! Shared experiment fixtures: the calibrated setups every binary uses.

use vardelay_circuit::CellLibrary;
use vardelay_core::{Pipeline, StageDelay};
use vardelay_process::Technology;
use vardelay_ssta::PipelineTiming;

/// The standard cell library (BPTM-70nm-like).
pub fn library() -> CellLibrary {
    CellLibrary::new(Technology::bptm70())
}

/// The Tables II/III pipeline as a campaign spec: the four synthetic
/// ISCAS85 profiles, biggest first (the same stages and order as
/// [`vardelay_circuit::generators::iscas::table2_stages`]), behind the
/// paper's TG-MSFF — shared by the `table2`/`table3` campaign drivers.
pub fn iscas_pipeline_spec() -> vardelay_engine::PipelineSpec {
    vardelay_engine::PipelineSpec::Circuits {
        stages: ["c3540", "c2670", "c1908", "c432"]
            .iter()
            .map(|name| vardelay_engine::CircuitSpec::Iscas {
                name: (*name).to_owned(),
            })
            .collect(),
        latch: vardelay_engine::LatchSpec::TgMsff70nm,
    }
}

/// Converts an SSTA pipeline analysis into the core pipeline model.
pub fn to_core_pipeline(timing: &PipelineTiming) -> Pipeline {
    let stages: Vec<StageDelay> = timing
        .stage_delays
        .iter()
        .map(|n| StageDelay::from_normal(*n))
        .collect();
    Pipeline::new(stages, timing.correlation.clone())
        .expect("SSTA timing dimensions are consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iscas_spec_matches_table2_stages() {
        use vardelay_circuit::generators::iscas;
        let built = iscas_pipeline_spec().build("iscas4").unwrap();
        let want = iscas::table2_stages();
        assert_eq!(built.stage_count(), want.len());
        for (b, w) in built.stages().iter().zip(&want) {
            assert_eq!(b.gate_count(), w.gate_count());
        }
    }
}
