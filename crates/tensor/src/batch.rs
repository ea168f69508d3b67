//! A batch of uniformly-shaped feature maps.
//!
//! EDEA's external-traffic argument extends across a *batch* of images:
//! weight tiles fetched from DRAM once can serve every image in the batch.
//! [`Batch`] is the container that carries such a batch through the golden
//! executor (`edea-nn`) and the batched accelerator schedule (`edea-core`):
//! a non-empty collection of [`Tensor3`]s whose shapes are checked to be
//! identical at construction, so every downstream consumer can iterate
//! images without re-validating.

use crate::{Tensor3, TensorError};

/// A non-empty batch of `C×H×W` feature maps with identical shapes.
///
/// # Example
///
/// ```
/// use edea_tensor::{Batch, Tensor3};
///
/// let batch = Batch::from_fn(3, |i| {
///     Tensor3::<i8>::from_fn(2, 4, 4, |c, h, w| (i + c + h + w) as i8)
/// }).unwrap();
/// assert_eq!(batch.len(), 3);
/// assert_eq!(batch.shape(), (2, 4, 4));
/// assert_eq!(batch[2][(0, 0, 0)], 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Batch<T> {
    images: Vec<Tensor3<T>>,
}

impl<T> Batch<T> {
    /// Wraps a non-empty vector of identically-shaped images.
    ///
    /// # Errors
    ///
    /// [`TensorError::EmptyDimension`] for an empty vector;
    /// [`TensorError::ShapeMismatch`] if any image's shape differs from the
    /// first one's.
    pub fn new(images: Vec<Tensor3<T>>) -> Result<Self, TensorError> {
        let Some(first) = images.first() else {
            return Err(TensorError::EmptyDimension);
        };
        let shape = first.shape();
        for (i, img) in images.iter().enumerate() {
            if img.shape() != shape {
                return Err(TensorError::ShapeMismatch {
                    detail: format!(
                        "batch image {i} has shape {:?}, expected {shape:?}",
                        img.shape()
                    ),
                });
            }
        }
        Ok(Self { images })
    }

    /// Number of images in the batch (`N ≥ 1`).
    #[must_use]
    #[expect(
        clippy::len_without_is_empty,
        reason = "a Batch is non-empty by construction"
    )]
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Shape `(C, H, W)` shared by every image.
    #[must_use]
    pub fn shape(&self) -> (usize, usize, usize) {
        self.images[0].shape()
    }

    /// The images as a slice, for APIs that take `&[Tensor3<T>]`.
    #[must_use]
    pub fn images(&self) -> &[Tensor3<T>] {
        &self.images
    }

    /// Iterates over the images in batch order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tensor3<T>> {
        self.images.iter()
    }

    /// Consumes the batch, returning the images.
    #[must_use]
    pub fn into_images(self) -> Vec<Tensor3<T>> {
        self.images
    }

    /// Builds a batch by evaluating `f(i)` for each of the `n` images.
    ///
    /// # Errors
    ///
    /// [`TensorError::EmptyDimension`] if `n == 0`;
    /// [`TensorError::ShapeMismatch`] if `f` produces differing shapes.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> Tensor3<T>) -> Result<Self, TensorError> {
        Self::new((0..n).map(f).collect())
    }

    /// Maps every image through `f`, preserving batch order.
    ///
    /// # Panics
    ///
    /// Panics if `f` produces images of differing shapes — a mapped batch
    /// must stay uniform.
    #[must_use]
    pub fn map_images<U>(&self, f: impl FnMut(&Tensor3<T>) -> Tensor3<U>) -> Batch<U> {
        Batch::new(self.images.iter().map(f).collect()).expect("mapped batch stays uniform")
    }
}

impl<T> std::ops::Index<usize> for Batch<T> {
    type Output = Tensor3<T>;

    fn index(&self, i: usize) -> &Tensor3<T> {
        &self.images[i]
    }
}

impl<'a, T> IntoIterator for &'a Batch<T> {
    type Item = &'a Tensor3<T>;
    type IntoIter = std::slice::Iter<'a, Tensor3<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.images.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_batch() {
        assert_eq!(
            Batch::<i8>::new(Vec::new()).unwrap_err(),
            TensorError::EmptyDimension
        );
    }

    #[test]
    fn rejects_mixed_shapes() {
        let images = vec![Tensor3::<i8>::zeros(1, 2, 2), Tensor3::<i8>::zeros(1, 3, 3)];
        assert!(matches!(
            Batch::new(images),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn accessors_agree() {
        let b = Batch::from_fn(4, |i| Tensor3::<i8>::from_fn(2, 3, 3, |_, _, _| i as i8)).unwrap();
        assert_eq!(b.len(), 4);
        assert_eq!(b.shape(), (2, 3, 3));
        assert_eq!(b.images().len(), 4);
        assert_eq!(b.iter().count(), 4);
        assert_eq!((&b).into_iter().count(), 4);
        assert_eq!(b[3][(0, 0, 0)], 3);
        assert_eq!(b.clone().into_images().len(), 4);
    }

    #[test]
    fn map_images_preserves_order_and_shape() {
        let b = Batch::from_fn(3, |i| Tensor3::<i8>::from_fn(1, 2, 2, |_, _, _| i as i8)).unwrap();
        let doubled = b.map_images(|t| t.map(|&v| i16::from(v) * 2));
        assert_eq!(doubled.len(), 3);
        assert_eq!(doubled[2][(0, 1, 1)], 4);
    }
}
