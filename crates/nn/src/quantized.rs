//! Reduced-precision *inference* (paper Sec. II): "state-of-the-art
//! classification accuracy across a range of popular models and datasets
//! is achievable with just 2-bit integer weights and activations \[13\]".
//!
//! The module implements the two calibration ideas that paragraph
//! credits: a statistical (max-abs percentile) scaling factor for weight
//! quantization, and a clipping parameter for activation quantization
//! chosen from observed activation statistics (the optimized-clip idea of
//! PACT-style methods, approximated post-training by percentile
//! calibration).

use crate::backend::LinearBackend;
use crate::data::Dataset;
use crate::mlp::Mlp;
use crate::DigitalLinear;
use enw_numerics::matrix::Matrix;
use enw_numerics::quant::Quantizer;
use enw_numerics::stats::quantile_in_place;
use enw_numerics::vector::argmax;

/// Quantization settings for inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceQuant {
    /// Weight bit width (2–8 useful).
    pub weight_bits: u32,
    /// Activation bit width.
    pub activation_bits: u32,
    /// Percentile (0–1] of |weight| used as the clipping range — the
    /// "statistical method to determine a scaling factor that minimizes
    /// the weight quantization error".
    pub weight_percentile: f64,
    /// Percentile of |activation| used as the activation clip (the
    /// trained clipping parameter, calibrated post-hoc).
    pub activation_percentile: f64,
}

impl Default for InferenceQuant {
    fn default() -> Self {
        InferenceQuant {
            weight_bits: 8,
            activation_bits: 8,
            weight_percentile: 0.999,
            activation_percentile: 0.995,
        }
    }
}

/// A quantized snapshot of a trained MLP, executing integer-grid weights
/// and activations.
#[derive(Debug, Clone)]
pub struct QuantizedMlp {
    /// Per-layer quantized weight matrices (dequantized values on the
    /// integer grid).
    layers: Vec<Matrix>,
    /// Per-layer activation quantizers (calibrated clip + step).
    act_quant: Vec<Quantizer>,
    activations: Vec<crate::activation::Activation>,
}

impl QuantizedMlp {
    /// Quantizes a trained digital MLP, calibrating activation clips on
    /// `calibration` inputs.
    ///
    /// # Panics
    ///
    /// Panics if the calibration set is empty or bit widths are out of
    /// the supported `2..=16` range.
    pub fn from_mlp(
        mlp: &mut Mlp<DigitalLinear>,
        cfg: &InferenceQuant,
        calibration: &Dataset,
    ) -> Self {
        assert!(!calibration.is_empty(), "need calibration samples");
        // Collect per-layer activation magnitudes over the calibration set,
        // each layer writing its output into a buffer of its own.
        let samples = calibration.len().min(200);
        let mut outputs: Vec<Vec<f32>> =
            mlp.layers().iter().map(|l| vec![0.0; l.out_dim()]).collect();
        let mut act_samples: Vec<Vec<f64>> =
            outputs.iter().map(|a| Vec::with_capacity(samples * a.len())).collect();
        for i in 0..samples {
            let mut x = calibration.input(i);
            let buffers = outputs.iter_mut().zip(&mut act_samples);
            for (layer, (a, seen)) in mlp.layers_mut().iter_mut().zip(buffers) {
                layer.infer_into(x, a);
                seen.extend(a.iter().map(|v| v.abs() as f64));
                x = a;
            }
        }
        let n_layers = outputs.len();
        let mut layers = Vec::with_capacity(n_layers);
        let mut act_quant = Vec::with_capacity(n_layers);
        let mut activations = Vec::with_capacity(n_layers);
        for (layer, seen) in mlp.layers().iter().zip(&mut act_samples) {
            let mut m = layer.backend().matrix().clone();
            // Statistical weight scale: percentile of |w| instead of max.
            let mut mags: Vec<f64> = m.as_slice().iter().map(|v| v.abs() as f64).collect();
            let clip = quantile_in_place(&mut mags, cfg.weight_percentile).max(1e-6) as f32;
            let wq = Quantizer::new(cfg.weight_bits, clip);
            m.map_inplace(|v| wq.round_trip(v));
            layers.push(m);
            // Activation clip from calibration percentile.
            let a_clip = if seen.is_empty() {
                1.0
            } else {
                quantile_in_place(seen, cfg.activation_percentile).max(1e-6) as f32
            };
            act_quant.push(Quantizer::new(cfg.activation_bits, a_clip));
            activations.push(layer.activation());
        }
        QuantizedMlp { layers, act_quant, activations }
    }

    /// Quantized-inference logits for one input.
    ///
    /// # Panics
    ///
    /// Panics if the input width mismatches.
    pub fn predict(&self, x: &[f32]) -> Vec<f32> {
        // Two buffers wide enough for any layer's bias-augmented input,
        // swapped after each layer.
        let width = self.layers.iter().map(|w| w.cols().max(w.rows())).max().unwrap_or(0);
        let mut a = Vec::with_capacity(width);
        let mut z = Vec::with_capacity(width);
        a.extend_from_slice(x);
        for ((w, act), aq) in self.layers.iter().zip(&self.activations).zip(&self.act_quant) {
            assert_eq!(a.len() + 1, w.cols(), "input width mismatch");
            a.push(1.0);
            z.clear();
            z.resize(w.rows(), 0.0);
            w.matvec_into(&a, &mut z);
            for v in &mut z {
                *v = aq.round_trip(act.apply(*v));
            }
            std::mem::swap(&mut a, &mut z);
        }
        a
    }

    /// Predicted class.
    pub fn classify(&self, x: &[f32]) -> usize {
        argmax(&self.predict(x))
    }

    /// Accuracy over a dataset.
    pub fn evaluate(&self, data: &Dataset) -> f64 {
        data.accuracy(|x| self.classify(x))
    }
}

/// Quantization-aware fine-tuning with the straight-through estimator:
/// each SGD step runs forward/backward on the *quantized* weights but
/// accumulates the update into a full-precision master copy — the
/// "proper algorithmic advances" that make very low-bit inference work
/// (refs. \[11\]\[13\] of the paper).
///
/// Returns the per-epoch mean loss.
///
/// # Panics
///
/// Panics on empty data or unsupported bit widths.
pub fn quantization_aware_finetune(
    mlp: &mut Mlp<DigitalLinear>,
    cfg: &InferenceQuant,
    data: &Dataset,
    epochs: usize,
    lr: f32,
    rng: &mut enw_numerics::rng::Rng64,
) -> Vec<f64> {
    assert!(!data.is_empty(), "need training samples");
    // Calibrate the activation quantizers once on the starting network
    // (the trained clipping parameter, held fixed during fine-tuning).
    let act_quant: Vec<Quantizer> = QuantizedMlp::from_mlp(mlp, cfg, data).act_quant;
    // Full-precision masters, and per layer the buffers each step
    // reuses: the masters' magnitudes and their quantized image.
    let mut masters: Vec<Matrix> = mlp.layers().iter().map(|l| l.backend().weights()).collect();
    let mut magnitudes: Vec<Vec<f64>> =
        masters.iter().map(|m| Vec::with_capacity(m.as_slice().len())).collect();
    let mut quantized = masters.clone();
    let n_layers = masters.len();
    // Every layer's output and every layer's input gradient, reused by
    // each step.
    let mut acts: Vec<Vec<f32>> = mlp.layers().iter().map(|l| vec![0.0; l.out_dim()]).collect();
    let mut grads: Vec<Vec<f32>> = mlp.layers().iter().map(|l| vec![0.0; l.in_dim()]).collect();
    let mut dlogits = vec![0.0f32; mlp.out_dim()];
    let history = data.sgd_epochs(epochs, rng, |input, label| {
        // Project masters onto the quantization grid (per-layer
        // percentile clip) and load the image into the layer.
        let buffers = quantized.iter_mut().zip(&mut magnitudes);
        for ((layer, master), (qm, mags)) in mlp.layers_mut().iter_mut().zip(&masters).zip(buffers)
        {
            mags.clear();
            mags.extend(master.as_slice().iter().map(|v| v.abs() as f64));
            let clip = quantile_in_place(mags, cfg.weight_percentile).max(1e-6) as f32;
            let q = Quantizer::new(cfg.weight_bits, clip);
            for (w, &m) in qm.as_mut_slice().iter_mut().zip(master.as_slice()) {
                *w = q.round_trip(m);
            }
            layer.backend_mut().set_weights(qm);
        }
        // Forward at the quantized point, fake-quantizing the hidden
        // activations so training sees exactly the deployment grid.
        let mut x = input;
        for (l, (layer, a)) in mlp.layers_mut().iter_mut().zip(&mut acts).enumerate() {
            layer.forward_into(x, a);
            if l + 1 < n_layers {
                for v in a.iter_mut() {
                    *v = act_quant[l].round_trip(*v);
                }
            }
            x = a;
        }
        let loss = crate::loss::softmax_cross_entropy_into(x, label, &mut dlogits);
        // Backward with the straight-through estimator (activation
        // quantization passes gradients unchanged).
        let mut upstream = &dlogits[..];
        for (layer, dx) in mlp.layers_mut().iter_mut().zip(&mut grads).rev() {
            layer.backward_into(upstream, dx);
            upstream = dx;
        }
        for layer in mlp.layers_mut().iter_mut() {
            layer.apply_update(lr);
        }
        // Route the realized update into the masters (weight STE).
        for ((layer, qm), master) in mlp.layers().iter().zip(&quantized).zip(&mut masters) {
            let updated = layer.backend().matrix().as_slice();
            let steps = updated.iter().zip(qm.as_slice());
            for (m, (&w, &q)) in master.as_mut_slice().iter_mut().zip(steps) {
                *m += w - q;
            }
        }
        loss
    });
    // Leave the network holding the masters (quantize at deployment via
    // QuantizedMlp::from_mlp).
    for (layer, master) in mlp.layers_mut().iter_mut().zip(&masters) {
        layer.backend_mut().set_weights(master);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::data::SyntheticImages;
    use crate::mlp::SgdConfig;
    use enw_numerics::rng::Rng64;

    fn trained_pair() -> (Mlp<DigitalLinear>, crate::data::Split) {
        let mut rng = Rng64::new(1);
        let split = SyntheticImages::builder()
            .classes(5)
            .dim(36)
            .train_per_class(50)
            .test_per_class(25)
            .noise(0.6)
            .build(&mut rng);
        let mut mlp = Mlp::digital(&[36, 24, 5], Activation::Tanh, &mut rng);
        mlp.train_sgd(&split.train, &SgdConfig { epochs: 8, learning_rate: 0.05 }, &mut rng);
        (mlp, split)
    }

    #[test]
    fn int8_matches_fp32_closely() {
        let (mut mlp, split) = trained_pair();
        let fp = mlp.evaluate(&split.test);
        let q = QuantizedMlp::from_mlp(&mut mlp, &InferenceQuant::default(), &split.train);
        let qa = q.evaluate(&split.test);
        assert!(fp > 0.8, "baseline failed: {fp}");
        assert!(qa > fp - 0.03, "int8 {qa} vs fp {fp}");
    }

    #[test]
    fn two_bit_needs_and_gets_quantization_aware_training() {
        // The paper's [13] claim at workspace scale: naive post-training
        // 2-bit quantization collapses, but quantization-aware
        // fine-tuning ("proper algorithmic advances") restores accuracy
        // near the FP32 baseline.
        let (mut mlp, split) = trained_pair();
        let fp = mlp.evaluate(&split.test);
        // At 2 bits (3 symmetric levels) the clip must sit near the bulk
        // of the weight distribution — a tail percentile would round
        // almost every weight to zero.
        let cfg = InferenceQuant {
            weight_bits: 2,
            activation_bits: 2,
            weight_percentile: 0.75,
            ..Default::default()
        };
        let naive = QuantizedMlp::from_mlp(&mut mlp, &cfg, &split.train).evaluate(&split.test);
        let mut rng = Rng64::new(99);
        quantization_aware_finetune(&mut mlp, &cfg, &split.train, 12, 0.03, &mut rng);
        let qat = QuantizedMlp::from_mlp(&mut mlp, &cfg, &split.train).evaluate(&split.test);
        assert!(qat > naive + 0.05, "QAT {qat} barely beat naive {naive}");
        assert!(qat > fp - 0.25, "QAT {qat} too far below FP {fp}");
    }

    #[test]
    fn accuracy_monotone_in_bits() {
        let (mut mlp, split) = trained_pair();
        let acc = |bits: u32, mlp: &mut Mlp<DigitalLinear>| {
            let cfg =
                InferenceQuant { weight_bits: bits, activation_bits: bits, ..Default::default() };
            QuantizedMlp::from_mlp(mlp, &cfg, &split.train).evaluate(&split.test)
        };
        let a8 = acc(8, &mut mlp);
        let a2 = acc(2, &mut mlp);
        assert!(a8 + 1e-9 >= a2, "8-bit {a8} must not trail 2-bit {a2}");
    }

    #[test]
    fn percentile_clip_beats_max_at_low_bits() {
        // With outlier weights, percentile calibration preserves more
        // resolution than max-abs — the "statistical scaling" claim.
        let (mut mlp, split) = trained_pair();
        let stat = InferenceQuant { weight_bits: 3, activation_bits: 8, ..Default::default() };
        let maxabs = InferenceQuant {
            weight_bits: 3,
            activation_bits: 8,
            weight_percentile: 1.0,
            ..Default::default()
        };
        let a_stat = QuantizedMlp::from_mlp(&mut mlp, &stat, &split.train).evaluate(&split.test);
        let a_max = QuantizedMlp::from_mlp(&mut mlp, &maxabs, &split.train).evaluate(&split.test);
        assert!(a_stat + 0.08 >= a_max, "stat {a_stat} vs max {a_max}");
    }

    #[test]
    fn quantized_outputs_lie_on_grid() {
        let (mut mlp, split) = trained_pair();
        let cfg = InferenceQuant { weight_bits: 4, activation_bits: 4, ..Default::default() };
        let q = QuantizedMlp::from_mlp(&mut mlp, &cfg, &split.train);
        let out = q.predict(split.test.input(0));
        let step = q.act_quant.last().expect("layers").step();
        for v in out {
            let ratio = v / step;
            assert!((ratio - ratio.round()).abs() < 1e-3, "{v} not on grid of {step}");
        }
    }
}
