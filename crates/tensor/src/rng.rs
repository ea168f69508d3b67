//! Deterministic synthetic data generation.
//!
//! The paper trains MobileNetV1 on CIFAR-10 in PyTorch; neither the trained
//! checkpoint nor the dataset is part of this reproduction (see
//! ARCHITECTURE.md's substitution notes). What the experiments consume is
//! (a) weight tensors with realistic magnitude distributions and (b) input
//! images with natural-image-like local correlation. This module generates
//! both deterministically from explicit seeds so every experiment is exactly
//! reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Tensor3, Tensor4};

/// A deterministic standard-normal sampler (Box–Muller over `StdRng`).
///
/// # Example
///
/// ```
/// use edea_tensor::rng::Normal;
///
/// let mut n = Normal::new(42);
/// let a = n.sample();
/// let b = Normal::new(42).sample();
/// assert_eq!(a, b); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct Normal {
    rng: StdRng,
    cached: Option<f64>,
}

impl Normal {
    /// Creates a sampler seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            cached: None,
        }
    }

    /// Draws one standard-normal sample.
    pub fn sample(&mut self) -> f64 {
        if let Some(v) = self.cached.take() {
            return v;
        }
        // Box–Muller transform.
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Draws a sample with the given mean and standard deviation.
    pub fn sample_with(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.sample()
    }
}

/// Kaiming-style (He) initialized convolution weights: zero-mean normal with
/// `std = sqrt(2 / fan_in)`, matching the distribution a freshly-initialized
/// (and, to first order, a trained) CNN layer exhibits.
///
/// # Panics
///
/// Panics if any dimension is zero.
#[must_use]
pub fn kaiming_weights(k: usize, c: usize, kh: usize, kw: usize, seed: u64) -> Tensor4<f32> {
    let fan_in = (c * kh * kw) as f64;
    let std = (2.0 / fan_in).sqrt();
    let mut n = Normal::new(seed ^ 0x5eed_0001);
    Tensor4::from_fn(k, c, kh, kw, |_, _, _, _| n.sample_with(0.0, std) as f32)
}

/// A synthetic natural-image-like feature map in `[-1, 1]`: white noise
/// passed through a separable 3-tap low-pass filter, giving the local spatial
/// correlation real images have (which is what makes activation statistics,
/// and hence sparsity and power, realistic).
///
/// # Panics
///
/// Panics if any dimension is zero.
#[must_use]
pub fn synthetic_image(c: usize, h: usize, w: usize, seed: u64) -> Tensor3<f32> {
    let mut n = Normal::new(seed ^ IMAGE_SEED_SALT);
    let noise = Tensor3::<f32>::from_fn(c, h, w, |_, _, _| n.sample() as f32);
    // Separable [1 2 1]/4 low-pass, clamped replicate borders.
    let blur_h = Tensor3::<f32>::from_fn(c, h, w, |ci, hi, wi| {
        let wm = wi.saturating_sub(1);
        let wp = (wi + 1).min(w - 1);
        0.25 * noise[(ci, hi, wm)] + 0.5 * noise[(ci, hi, wi)] + 0.25 * noise[(ci, hi, wp)]
    });
    let blurred = Tensor3::<f32>::from_fn(c, h, w, |ci, hi, wi| {
        let hm = hi.saturating_sub(1);
        let hp = (hi + 1).min(h - 1);
        0.25 * blur_h[(ci, hm, wi)] + 0.5 * blur_h[(ci, hi, wi)] + 0.25 * blur_h[(ci, hp, wi)]
    });
    blurred.map(|&v| v.clamp(-1.0, 1.0))
}

/// A batch of synthetic images (distinct seeds derived from `seed`).
#[must_use]
pub fn synthetic_batch(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Vec<Tensor3<f32>> {
    (0..n)
        .map(|i| synthetic_image(c, h, w, seed.wrapping_add(i as u64 * 7919)))
        .collect()
}

/// Deterministic int8 tensor with entries uniform in `[lo, hi]`, for
/// engine-level tests.
///
/// # Panics
///
/// Panics if `lo > hi` or any dimension is zero.
#[must_use]
pub fn uniform_i8_tensor3(c: usize, h: usize, w: usize, lo: i8, hi: i8, seed: u64) -> Tensor3<i8> {
    assert!(lo <= hi, "empty range");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
    Tensor3::from_fn(c, h, w, |_, _, _| rng.gen_range(lo..=hi))
}

/// Deterministic int8 rank-4 tensor with entries uniform in `[lo, hi]`.
///
/// # Panics
///
/// Panics if `lo > hi` or any dimension is zero.
#[must_use]
pub fn uniform_i8_tensor4(
    k: usize,
    c: usize,
    h: usize,
    w: usize,
    lo: i8,
    hi: i8,
    seed: u64,
) -> Tensor4<i8> {
    assert!(lo <= hi, "empty range");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed_f00d);
    Tensor4::from_fn(k, c, h, w, |_, _, _, _| rng.gen_range(lo..=hi))
}

/// Salt mixed into image seeds so images never collide with weight streams
/// derived from the same user seed.
const IMAGE_SEED_SALT: u64 = 0x1089_7a6e_11aa_90cc;

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean and population standard deviation, accumulated in `f64`.
    fn mean_std(values: &[f32]) -> (f64, f64) {
        let n = values.len() as f64;
        let mean = values.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
        let var = values
            .iter()
            .map(|&v| (f64::from(v) - mean).powi(2))
            .sum::<f64>()
            / n;
        (mean, var.sqrt())
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut n = Normal::new(123);
        let samples: Vec<f32> = (0..20_000).map(|_| n.sample() as f32).collect();
        let (mean, std) = mean_std(&samples);
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((std - 1.0).abs() < 0.03, "std {std}");
    }

    #[test]
    fn normal_is_deterministic() {
        let a: Vec<f64> = {
            let mut n = Normal::new(7);
            (0..10).map(|_| n.sample()).collect()
        };
        let b: Vec<f64> = {
            let mut n = Normal::new(7);
            (0..10).map(|_| n.sample()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn normal_seeds_differ() {
        let a = Normal::new(1).sample();
        let b = Normal::new(2).sample();
        assert_ne!(a, b);
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let w1 = kaiming_weights(64, 8, 3, 3, 5);
        let w2 = kaiming_weights(64, 32, 3, 3, 5);
        let (_, std1) = mean_std(w1.as_slice());
        let (_, std2) = mean_std(w2.as_slice());
        // fan_in quadruples -> std halves
        assert!((std1 / std2 - 2.0).abs() < 0.2, "{std1} {std2}");
    }

    #[test]
    fn synthetic_image_is_bounded_and_correlated() {
        let img = synthetic_image(3, 32, 32, 99);
        assert!(img.as_slice().iter().all(|v| (-1.0..=1.0).contains(v)));
        // Neighbouring pixels must correlate positively (low-pass property):
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for c in 0..3 {
            for h in 0..32 {
                for w in 0..31 {
                    num += f64::from(img[(c, h, w)]) * f64::from(img[(c, h, w + 1)]);
                    den += f64::from(img[(c, h, w)]).powi(2);
                }
            }
        }
        assert!(num / den > 0.3, "autocorrelation too low: {}", num / den);
    }

    #[test]
    fn synthetic_batch_images_differ() {
        let batch = synthetic_batch(3, 1, 8, 8, 42);
        assert_eq!(batch.len(), 3);
        assert_ne!(batch[0], batch[1]);
        assert_ne!(batch[1], batch[2]);
    }

    #[test]
    fn uniform_tensors_respect_bounds() {
        let t3 = uniform_i8_tensor3(4, 5, 6, -3, 7, 1);
        assert!(t3.as_slice().iter().all(|&v| (-3..=7).contains(&v)));
        let t4 = uniform_i8_tensor4(2, 3, 3, 3, -128, 127, 2);
        assert_eq!(t4.len(), 54);
    }

    #[test]
    fn uniform_full_range_hits_extremes_eventually() {
        let t = uniform_i8_tensor3(8, 32, 32, -128, 127, 3);
        let min = t.as_slice().iter().min().unwrap();
        let max = t.as_slice().iter().max().unwrap();
        assert!(
            *min <= -120 && *max >= 120,
            "range not exercised: {min} {max}"
        );
    }
}
