//! Labeled datasets and the synthetic image-classification generator.
//!
//! The paper's analog-training experiments use MNIST/CIFAR-10; those
//! datasets are not shippable inside this repository, so the workspace
//! substitutes [`SyntheticImages`]: a deterministic generator producing
//! Gaussian class clusters with spatially correlated "pixels". The
//! device-requirement experiments (E2/E4) measure *relative* accuracy
//! degradation between analog and floating-point training on the same data,
//! which this generator preserves (see DESIGN.md, substitutions table).

use enw_numerics::matrix::Matrix;
use enw_numerics::rng::Rng64;

/// A labeled classification dataset with row-major inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    inputs: Matrix,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset from inputs (one row per sample) and labels.
    ///
    /// # Panics
    ///
    /// Panics if the row count and label count differ, or any label is
    /// `>= num_classes`.
    pub fn new(inputs: Matrix, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(inputs.rows(), labels.len(), "one label per input row");
        assert!(labels.iter().all(|&l| l < num_classes), "labels must be < num_classes");
        Dataset { inputs, labels, num_classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.inputs.cols()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Input row `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn input(&self, i: usize) -> &[f32] {
        self.inputs.row(i)
    }

    /// Label of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Per-sample SGD: `epochs` passes over every sample, each pass in a
    /// fresh shuffle of the order drawn from `rng`, `step(input, label)`
    /// taking one step and returning its loss. Returns each epoch's mean
    /// loss.
    pub(crate) fn sgd_epochs(
        &self,
        epochs: usize,
        rng: &mut Rng64,
        mut step: impl FnMut(&[f32], usize) -> f32,
    ) -> Vec<f64> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            rng.shuffle(&mut order);
            let mut total = 0.0f64;
            for &i in &order {
                total += step(self.input(i), self.label(i)) as f64;
            }
            history.push(total / self.len() as f64);
        }
        history
    }

    /// The fraction of samples `classify` labels correctly (0 for an
    /// empty dataset).
    pub(crate) fn accuracy(&self, mut classify: impl FnMut(&[f32]) -> usize) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let correct = (0..self.len()).filter(|&i| classify(self.input(i)) == self.label(i)).count();
        correct as f64 / self.len() as f64
    }
}

/// A train/test split produced by a generator.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Training partition.
    pub train: Dataset,
    /// Held-out test partition.
    pub test: Dataset,
}

/// Builder-configured synthetic image-classification generator.
///
/// Each class `c` gets a prototype vector built from smoothed Gaussian
/// noise (adjacent "pixels" are correlated, as in natural images); samples
/// are the prototype plus i.i.d. Gaussian pixel noise, squashed to `[0, 1]`
/// through a logistic, like normalized grayscale intensities.
///
/// # Example
///
/// ```
/// use enw_nn::data::SyntheticImages;
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(9);
/// let split = SyntheticImages::builder()
///     .classes(10)
///     .dim(64)
///     .train_per_class(10)
///     .test_per_class(5)
///     .build(&mut rng);
/// assert_eq!(split.train.len(), 100);
/// assert_eq!(split.test.dim(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticImages {
    classes: usize,
    dim: usize,
    train_per_class: usize,
    test_per_class: usize,
    noise: f64,
    smoothing: usize,
}

impl SyntheticImages {
    /// Starts a builder with MNIST-like defaults (10 classes, 784 dims).
    pub fn builder() -> SyntheticImages {
        SyntheticImages {
            classes: 10,
            dim: 784,
            train_per_class: 100,
            test_per_class: 20,
            noise: 0.6,
            smoothing: 3,
        }
    }

    /// Sets the number of classes.
    pub fn classes(mut self, n: usize) -> Self {
        self.classes = n;
        self
    }

    /// Sets the input dimensionality ("pixel" count).
    pub fn dim(mut self, d: usize) -> Self {
        self.dim = d;
        self
    }

    /// Sets training samples per class.
    pub fn train_per_class(mut self, n: usize) -> Self {
        self.train_per_class = n;
        self
    }

    /// Sets test samples per class.
    pub fn test_per_class(mut self, n: usize) -> Self {
        self.test_per_class = n;
        self
    }

    /// Sets the per-pixel Gaussian noise standard deviation (task
    /// difficulty knob; default 0.6).
    pub fn noise(mut self, sigma: f64) -> Self {
        self.noise = sigma;
        self
    }

    /// Generates the train/test split.
    ///
    /// # Panics
    ///
    /// Panics if classes, dim or train_per_class is zero.
    pub fn build(self, rng: &mut Rng64) -> Split {
        assert!(self.classes > 0 && self.dim > 0, "classes and dim must be positive");
        assert!(self.train_per_class > 0, "need at least one training sample per class");
        let prototypes: Vec<Vec<f32>> = (0..self.classes).map(|_| self.prototype(rng)).collect();
        let train = self.sample_set(&prototypes, self.train_per_class, rng);
        let test = self.sample_set(&prototypes, self.test_per_class, rng);
        Split { train, test }
    }

    fn prototype(&self, rng: &mut Rng64) -> Vec<f32> {
        let raw: Vec<f64> = (0..self.dim).map(|_| rng.normal()).collect();
        // Moving-average smoothing: neighbouring pixels become correlated.
        let w = self.smoothing;
        (0..self.dim)
            .map(|i| {
                let lo = i.saturating_sub(w);
                let hi = (i + w + 1).min(self.dim);
                let window = &raw[lo..hi];
                (window.iter().sum::<f64>() / window.len() as f64 * 2.0) as f32
            })
            .collect()
    }

    fn sample_set(&self, prototypes: &[Vec<f32>], per_class: usize, rng: &mut Rng64) -> Dataset {
        let n = per_class * self.classes;
        let mut inputs = Matrix::zeros(n.max(1), self.dim);
        let mut labels = Vec::with_capacity(n);
        let mut row = 0;
        for (c, proto) in prototypes.iter().enumerate() {
            for _ in 0..per_class {
                let dst = inputs.row_mut(row);
                for (d, p) in dst.iter_mut().zip(proto) {
                    let z = *p as f64 + rng.normal() * self.noise;
                    // Logistic squash to [0,1] grayscale.
                    *d = (1.0 / (1.0 + (-z).exp())) as f32;
                }
                labels.push(c);
                row += 1;
            }
        }
        if n == 0 {
            // Degenerate but legal: an empty test partition.
            return Dataset {
                inputs: Matrix::zeros(1, self.dim),
                labels: vec![],
                num_classes: self.classes,
            };
        }
        Dataset::new(inputs, labels, self.classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_label_ranges() {
        let mut rng = Rng64::new(1);
        let s = SyntheticImages::builder()
            .classes(5)
            .dim(20)
            .train_per_class(8)
            .test_per_class(3)
            .build(&mut rng);
        assert_eq!(s.train.len(), 40);
        assert_eq!(s.test.len(), 15);
        assert_eq!(s.train.num_classes(), 5);
        for i in 0..s.train.len() {
            assert!(s.train.label(i) < 5);
            assert_eq!(s.train.input(i).len(), 20);
        }
    }

    #[test]
    fn pixels_are_normalized() {
        let mut rng = Rng64::new(2);
        let s = SyntheticImages::builder()
            .classes(3)
            .dim(30)
            .train_per_class(5)
            .test_per_class(2)
            .build(&mut rng);
        for i in 0..s.train.len() {
            assert!(s.train.input(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SyntheticImages::builder()
            .classes(3)
            .dim(10)
            .train_per_class(4)
            .test_per_class(2)
            .build(&mut Rng64::new(7));
        let b = SyntheticImages::builder()
            .classes(3)
            .dim(10)
            .train_per_class(4)
            .test_per_class(2)
            .build(&mut Rng64::new(7));
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn classes_are_distinguishable() {
        // Mean intra-class distance must be smaller than inter-class
        // distance, otherwise the task is unlearnable.
        let mut rng = Rng64::new(3);
        let s = SyntheticImages::builder()
            .classes(4)
            .dim(50)
            .train_per_class(20)
            .test_per_class(1)
            .build(&mut rng);
        let d = |a: &[f32], b: &[f32]| enw_numerics::vector::dist_l2(a, b) as f64;
        let mut intra = 0.0;
        let mut inter = 0.0;
        let mut n_intra = 0;
        let mut n_inter = 0;
        for i in 0..s.train.len() {
            for j in (i + 1)..s.train.len() {
                let dist = d(s.train.input(i), s.train.input(j));
                if s.train.label(i) == s.train.label(j) {
                    intra += dist;
                    n_intra += 1;
                } else {
                    inter += dist;
                    n_inter += 1;
                }
            }
        }
        assert!(inter / n_inter as f64 > intra / n_intra as f64 * 1.05);
    }

    #[test]
    #[should_panic(expected = "one label per input")]
    fn mismatched_labels_panic() {
        Dataset::new(Matrix::zeros(3, 2), vec![0, 1], 2);
    }

    #[test]
    fn empty_test_partition_is_legal() {
        let mut rng = Rng64::new(4);
        let s = SyntheticImages::builder()
            .classes(2)
            .dim(4)
            .train_per_class(2)
            .test_per_class(0)
            .build(&mut rng);
        assert!(s.test.is_empty());
    }
}
