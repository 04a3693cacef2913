//! Structure-of-arrays device lanes for batched Monte Carlo.
//!
//! Every MC trial of one circuit shares the element list and sparsity
//! pattern; only the per-device parameters (W, L, VT0) differ. Packing
//! the K perturbed variants of one MOSFET into parameter lanes lets the
//! engine evaluate the same device across all trials in one loop: the
//! bias gathers, the EKV evaluation ([`MosModel::op`], the same analytic
//! linearization the scalar kernel stamps) and the stamp formation all
//! run lane-major with no per-trial dispatch. The lane count K is fixed
//! at construction; lane 0 is conventionally the first trial of the
//! group, not a nominal reference.

use crate::bypass::{MosBias, MosStamp};
use crate::mosfet::{MosCaps, MosGeometry, MosModel};

/// K perturbed variants of a single MOSFET, stored as parameter lanes.
///
/// The models and geometries are per-lane because process variation
/// perturbs both the card (`vt0`) and the geometry (W, L). Evaluation
/// is lockstep: one call produces the stamp (or capacitance set) of
/// every lane at that lane's own bias.
#[derive(Debug, Clone)]
pub struct MosLanes {
    models: Vec<MosModel>,
    geoms: Vec<MosGeometry>,
}

impl MosLanes {
    /// Packs per-lane model/geometry variants. Panics when the lane
    /// vectors are empty or of unequal length — lanes are lockstep by
    /// definition.
    pub fn new(models: Vec<MosModel>, geoms: Vec<MosGeometry>) -> Self {
        assert!(!models.is_empty(), "MosLanes needs at least one lane");
        assert_eq!(
            models.len(),
            geoms.len(),
            "model and geometry lanes must be lockstep"
        );
        Self { models, geoms }
    }

    /// Number of lanes K.
    pub fn lanes(&self) -> usize {
        self.models.len()
    }

    /// One lane's model card.
    pub fn model(&self, lane: usize) -> &MosModel {
        &self.models[lane]
    }

    /// One lane's geometry.
    pub fn geometry(&self, lane: usize) -> &MosGeometry {
        &self.geoms[lane]
    }

    /// Evaluates this device across all lanes: lane `k` is linearized
    /// at `biases[k]` and its Newton stamp written to `out[k]`, exactly
    /// as the scalar kernel would stamp it.
    pub fn eval_batch(&self, biases: &[MosBias], temp_k: f64, out: &mut [MosStamp]) {
        debug_assert_eq!(biases.len(), self.lanes());
        debug_assert_eq!(out.len(), self.lanes());
        for ((slot, bias), (model, geom)) in out
            .iter_mut()
            .zip(biases)
            .zip(self.models.iter().zip(&self.geoms))
        {
            let op = model.op(geom, bias.vg, bias.vd, bias.vs, bias.vb, temp_k);
            *slot = MosStamp::from_op(&op, bias);
        }
    }

    /// Meyer capacitances across all lanes at per-lane biases.
    pub fn caps_batch(&self, biases: &[MosBias], temp_k: f64, out: &mut [MosCaps]) {
        debug_assert_eq!(biases.len(), self.lanes());
        debug_assert_eq!(out.len(), self.lanes());
        for ((slot, bias), (model, geom)) in out
            .iter_mut()
            .zip(biases)
            .zip(self.models.iter().zip(&self.geoms))
        {
            *slot = model.caps(geom, bias.vg, bias.vd, bias.vs, bias.vb, temp_k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_batch_matches_per_lane_scalar_eval() {
        let models = vec![
            MosModel::ptm90_nmos(),
            MosModel::ptm90_nmos().with_vt0(0.41),
            MosModel::ptm90_pmos(),
        ];
        let geoms = vec![
            MosGeometry::from_microns(0.2, 0.1),
            MosGeometry::from_microns(0.21, 0.099),
            MosGeometry::from_microns(0.4, 0.1),
        ];
        let lanes = MosLanes::new(models.clone(), geoms.clone());
        let biases = [
            MosBias::new(1.2, 0.6, 0.0, 0.0),
            MosBias::new(0.8, 1.2, 0.1, 0.0),
            MosBias::new(0.0, 0.3, 1.2, 1.2),
        ];
        let mut stamps = [MosStamp::default(); 3];
        lanes.eval_batch(&biases, 300.15, &mut stamps);
        let mut caps = [MosCaps::default(); 3];
        lanes.caps_batch(&biases, 300.15, &mut caps);
        for k in 0..3 {
            let b = &biases[k];
            let op = models[k].op(&geoms[k], b.vg, b.vd, b.vs, b.vb, 300.15);
            assert_eq!(stamps[k], MosStamp::from_op(&op, b));
            assert_eq!(
                caps[k],
                models[k].caps(&geoms[k], b.vg, b.vd, b.vs, b.vb, 300.15)
            );
        }
    }

    #[test]
    #[should_panic(expected = "lockstep")]
    fn mismatched_lanes_panic() {
        MosLanes::new(
            vec![MosModel::ptm90_nmos()],
            vec![
                MosGeometry::from_microns(0.2, 0.1),
                MosGeometry::from_microns(0.2, 0.1),
            ],
        );
    }
}
