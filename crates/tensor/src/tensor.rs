//! Fixed-rank tensor containers.

use std::fmt;

use crate::TensorError;

/// A dense channel-major (`C×H×W`) rank-3 tensor — one feature map.
///
/// Element `(c, h, w)` lives at linear index `(c*H + h)*W + w`, the layout
/// the accelerator's external memory uses (channel planes, then rows).
///
/// # Example
///
/// ```
/// use edea_tensor::Tensor3;
///
/// let mut t = Tensor3::<f32>::zeros(2, 3, 3);
/// t[(1, 2, 0)] = 5.0;
/// assert_eq!(t[(1, 2, 0)], 5.0);
/// assert_eq!(t.shape(), (2, 3, 3));
/// assert_eq!(t.len(), 18);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor3<T> {
    data: Vec<T>,
    c: usize,
    h: usize,
    w: usize,
}

impl<T: Copy + Default> Tensor3<T> {
    /// Creates a tensor filled with `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn zeros(c: usize, h: usize, w: usize) -> Self {
        assert!(
            c > 0 && h > 0 && w > 0,
            "tensor dimensions must be non-zero"
        );
        Self {
            data: vec![T::default(); c * h * w],
            c,
            h,
            w,
        }
    }

    /// Creates a tensor by evaluating `f(c, h, w)` for every element.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn from_fn(
        c: usize,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut t = Self::zeros(c, h, w);
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    t[(ci, hi, wi)] = f(ci, hi, wi);
                }
            }
        }
        t
    }

    /// Wraps an existing buffer.
    ///
    /// # Errors
    ///
    /// [`TensorError::LengthMismatch`] if `data.len() != c*h*w`;
    /// [`TensorError::EmptyDimension`] if any dimension is zero.
    pub fn from_vec(data: Vec<T>, c: usize, h: usize, w: usize) -> Result<Self, TensorError> {
        if c == 0 || h == 0 || w == 0 {
            return Err(TensorError::EmptyDimension);
        }
        if data.len() != c * h * w {
            return Err(TensorError::LengthMismatch {
                expected: c * h * w,
                actual: data.len(),
            });
        }
        Ok(Self { data, c, h, w })
    }

    /// Returns a spatially zero-padded copy (`pad` rows/cols on every
    /// side). Each input row lands with one `copy_from_slice`.
    #[must_use]
    pub fn zero_padded(&self, pad: usize) -> Self {
        let (h, w) = (self.h + 2 * pad, self.w + 2 * pad);
        let mut out = Self::zeros(self.c, h, w);
        for (src, dst) in self
            .data
            .chunks_exact(self.h * self.w)
            .zip(out.data.chunks_exact_mut(h * w))
        {
            for (row, dst_row) in src
                .chunks_exact(self.w)
                .zip(dst[pad * w..].chunks_exact_mut(w))
            {
                dst_row[pad..pad + self.w].copy_from_slice(row);
            }
        }
        out
    }

    /// Reshapes to `(c, h, w)` in place and fills every element with
    /// `T::default()`, reusing the existing allocation whenever its
    /// capacity allows — the steady-state path performs no heap
    /// allocation. This is the scratch-buffer primitive of the simulator's
    /// tile pipeline: a buffer is reserved once at its largest shape and
    /// `resize_zeroed` between uses.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn resize_zeroed(&mut self, c: usize, h: usize, w: usize) {
        assert!(
            c > 0 && h > 0 && w > 0,
            "tensor dimensions must be non-zero"
        );
        self.data.clear();
        self.data.resize(c * h * w, T::default());
        self.c = c;
        self.h = h;
        self.w = w;
    }

    /// Reshapes to `(c, h, w)` in place, leaving the contents
    /// **unspecified** (stale) when the element count already matches —
    /// for consumers that overwrite every element anyway, this skips
    /// [`Tensor3::resize_zeroed`]'s fill. When the count changes it
    /// behaves exactly like `resize_zeroed`. Never allocates when
    /// capacity suffices.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn resize_for_overwrite(&mut self, c: usize, h: usize, w: usize) {
        assert!(
            c > 0 && h > 0 && w > 0,
            "tensor dimensions must be non-zero"
        );
        if self.data.len() != c * h * w {
            self.data.clear();
            self.data.resize(c * h * w, T::default());
        }
        self.c = c;
        self.h = h;
        self.w = w;
    }

    /// Ensures the backing storage can hold at least `n` elements, so a
    /// later [`Tensor3::resize_zeroed`] up to that size cannot allocate.
    /// Shape and contents are untouched.
    pub fn reserve_capacity(&mut self, n: usize) {
        if n > self.data.len() {
            self.data.reserve(n - self.data.len());
        }
    }

    /// Copies the window anchored at `(c0, h0, w0)` of extent
    /// `shape = (cn, hn, wn)` into `out` in channel-major order, overwriting
    /// every element — for writing a window straight into a channel slab of
    /// a larger tensor without allocating. Rows are moved with flat-index
    /// `copy_from_slice` calls, not per-element indexing.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds this tensor's bounds or `out` is not
    /// exactly `cn·hn·wn` long.
    pub fn copy_window_to_slice(
        &self,
        (c0, h0, w0): (usize, usize, usize),
        (cn, hn, wn): (usize, usize, usize),
        out: &mut [T],
    ) {
        assert!(
            c0 + cn <= self.c && h0 + hn <= self.h && w0 + wn <= self.w,
            "window ({cn}, {hn}, {wn}) at ({c0}, {h0}, {w0}) exceeds shape {:?}",
            self.shape()
        );
        assert_eq!(out.len(), cn * hn * wn, "window slice length");
        for c in 0..cn {
            for h in 0..hn {
                let src = ((c0 + c) * self.h + (h0 + h)) * self.w + w0;
                let dst = (c * hn + h) * wn;
                out[dst..dst + wn].copy_from_slice(&self.data[src..src + wn]);
            }
        }
    }

    /// Writes `src` into the window of this tensor anchored at
    /// `(c0, h0, w0)` — the inverse of [`Tensor3::copy_window_to_slice`], used
    /// to scatter a computed tile back into a full feature map without
    /// per-element index arithmetic. A window spanning whole planes is one
    /// contiguous run and lands with a single copy.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds this tensor's bounds.
    pub fn paste_window(&mut self, c0: usize, h0: usize, w0: usize, src: &Self) {
        let (cn, hn, wn) = src.shape();
        assert!(
            c0 + cn <= self.c && h0 + hn <= self.h && w0 + wn <= self.w,
            "window ({cn}, {hn}, {wn}) at ({c0}, {h0}, {w0}) exceeds shape ({}, {}, {})",
            self.c,
            self.h,
            self.w
        );
        if (hn, wn) == (self.h, self.w) {
            let dst = c0 * hn * wn;
            self.data[dst..dst + src.data.len()].copy_from_slice(&src.data);
            return;
        }
        for c in 0..cn {
            for h in 0..hn {
                let dst = ((c0 + c) * self.h + (h0 + h)) * self.w + w0;
                let s = (c * hn + h) * wn;
                self.data[dst..dst + wn].copy_from_slice(&src.data[s..s + wn]);
            }
        }
    }

    /// Extracts channels `[c0, c0+n)` into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the channel count.
    #[must_use]
    pub fn channel_slice(&self, c0: usize, n: usize) -> Self {
        assert!(
            c0 + n <= self.c,
            "channel range {c0}..{} out of 0..{}",
            c0 + n,
            self.c
        );
        let plane = self.h * self.w;
        let data = self.data[c0 * plane..(c0 + n) * plane].to_vec();
        Self {
            data,
            c: n,
            h: self.h,
            w: self.w,
        }
    }
}

impl<T> Tensor3<T> {
    /// `(C, H, W)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.c, self.h, self.w)
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.c
    }

    /// Spatial height.
    #[must_use]
    pub fn height(&self) -> usize {
        self.h
    }

    /// Spatial width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true: dims are non-zero).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing storage (CHW order).
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing storage (CHW order).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor, returning the backing storage.
    #[must_use]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Iterates over `((c, h, w), &value)` in storage order.
    pub fn indexed_iter(&self) -> impl Iterator<Item = ((usize, usize, usize), &T)> {
        let (h, w) = (self.h, self.w);
        self.data.iter().enumerate().map(move |(i, v)| {
            let c = i / (h * w);
            let r = i % (h * w);
            ((c, r / w, r % w), v)
        })
    }

    /// Applies `f` elementwise, producing a new tensor.
    #[must_use]
    pub fn map<U>(&self, f: impl Fn(&T) -> U) -> Tensor3<U> {
        Tensor3 {
            data: self.data.iter().map(f).collect(),
            c: self.c,
            h: self.h,
            w: self.w,
        }
    }

    #[inline]
    fn offset(&self, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(
            c < self.c && h < self.h && w < self.w,
            "index out of bounds"
        );
        (c * self.h + h) * self.w + w
    }

    /// Bounds-checked element access.
    #[must_use]
    pub fn get(&self, c: usize, h: usize, w: usize) -> Option<&T> {
        if c < self.c && h < self.h && w < self.w {
            self.data.get(self.offset(c, h, w))
        } else {
            None
        }
    }
}

impl<T> std::ops::Index<(usize, usize, usize)> for Tensor3<T> {
    type Output = T;

    #[inline]
    fn index(&self, (c, h, w): (usize, usize, usize)) -> &T {
        let i = self.offset(c, h, w);
        &self.data[i]
    }
}

impl<T> std::ops::IndexMut<(usize, usize, usize)> for Tensor3<T> {
    #[inline]
    fn index_mut(&mut self, (c, h, w): (usize, usize, usize)) -> &mut T {
        let i = self.offset(c, h, w);
        &mut self.data[i]
    }
}

impl<T: fmt::Display> fmt::Display for Tensor3<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor3 {}x{}x{}:", self.c, self.h, self.w)?;
        for c in 0..self.c.min(4) {
            writeln!(f, " channel {c}:")?;
            for h in 0..self.h.min(8) {
                write!(f, "  ")?;
                for w in 0..self.w.min(8) {
                    write!(f, "{} ", self[(c, h, w)])?;
                }
                writeln!(f)?;
            }
        }
        if self.c > 4 || self.h > 8 || self.w > 8 {
            writeln!(f, " …")?;
        }
        Ok(())
    }
}

/// A dense rank-4 tensor (`K×C×H×W`) — a stack of convolution kernels.
///
/// For depthwise weights `C == 1` (one 2-D filter per output channel); for
/// pointwise weights `H == W == 1`.
///
/// # Example
///
/// ```
/// use edea_tensor::Tensor4;
///
/// let w = Tensor4::<i8>::zeros(16, 8, 1, 1); // a PWC kernel tile
/// assert_eq!(w.shape(), (16, 8, 1, 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4<T> {
    data: Vec<T>,
    k: usize,
    c: usize,
    h: usize,
    w: usize,
}

impl<T: Copy + Default> Tensor4<T> {
    /// Creates a tensor filled with `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn zeros(k: usize, c: usize, h: usize, w: usize) -> Self {
        assert!(
            k > 0 && c > 0 && h > 0 && w > 0,
            "tensor dimensions must be non-zero"
        );
        Self {
            data: vec![T::default(); k * c * h * w],
            k,
            c,
            h,
            w,
        }
    }

    /// Creates a tensor by evaluating `f(k, c, h, w)` for every element.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn from_fn(
        k: usize,
        c: usize,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> T,
    ) -> Self {
        let mut t = Self::zeros(k, c, h, w);
        for ki in 0..k {
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        t[(ki, ci, hi, wi)] = f(ki, ci, hi, wi);
                    }
                }
            }
        }
        t
    }

    /// Wraps an existing buffer.
    ///
    /// # Errors
    ///
    /// [`TensorError::LengthMismatch`] / [`TensorError::EmptyDimension`] as
    /// for [`Tensor3::from_vec`].
    pub fn from_vec(
        data: Vec<T>,
        k: usize,
        c: usize,
        h: usize,
        w: usize,
    ) -> Result<Self, TensorError> {
        if k == 0 || c == 0 || h == 0 || w == 0 {
            return Err(TensorError::EmptyDimension);
        }
        if data.len() != k * c * h * w {
            return Err(TensorError::LengthMismatch {
                expected: k * c * h * w,
                actual: data.len(),
            });
        }
        Ok(Self { data, k, c, h, w })
    }

    /// Extracts kernels `[k0, k0+n)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the kernel count.
    #[must_use]
    pub fn kernel_slice(&self, k0: usize, n: usize) -> Self {
        assert!(
            k0 + n <= self.k,
            "kernel range {k0}..{} out of 0..{}",
            k0 + n,
            self.k
        );
        let vol = self.c * self.h * self.w;
        let data = self.data[k0 * vol..(k0 + n) * vol].to_vec();
        Self {
            data,
            k: n,
            c: self.c,
            h: self.h,
            w: self.w,
        }
    }

    /// Extracts input channels `[c0, c0+n)` from every kernel.
    ///
    /// Channels of one kernel are contiguous in KCHW order, so the slice
    /// is one flat-index block copy per kernel.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the channel count.
    #[must_use]
    pub fn channel_slice(&self, c0: usize, n: usize) -> Self {
        assert!(
            c0 + n <= self.c,
            "channel range {c0}..{} out of 0..{}",
            c0 + n,
            self.c
        );
        let plane = self.h * self.w;
        let mut out = Self::zeros(self.k, n, self.h, self.w);
        for k in 0..self.k {
            let src = (k * self.c + c0) * plane;
            let dst = k * n * plane;
            out.data[dst..dst + n * plane].copy_from_slice(&self.data[src..src + n * plane]);
        }
        out
    }
}

impl<T> Tensor4<T> {
    /// `(K, C, H, W)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.k, self.c, self.h, self.w)
    }

    /// Number of kernels (output channels).
    #[must_use]
    pub fn kernels(&self) -> usize {
        self.k
    }

    /// Number of input channels per kernel.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.c
    }

    /// Kernel height.
    #[must_use]
    pub fn height(&self) -> usize {
        self.h
    }

    /// Kernel width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true: dims are non-zero).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing storage (KCHW order).
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing storage (KCHW order).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Applies `f` elementwise, producing a new tensor.
    #[must_use]
    pub fn map<U>(&self, f: impl Fn(&T) -> U) -> Tensor4<U> {
        Tensor4 {
            data: self.data.iter().map(f).collect(),
            k: self.k,
            c: self.c,
            h: self.h,
            w: self.w,
        }
    }

    #[inline]
    fn offset(&self, k: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(
            k < self.k && c < self.c && h < self.h && w < self.w,
            "index out of bounds"
        );
        ((k * self.c + c) * self.h + h) * self.w + w
    }
}

impl<T> std::ops::Index<(usize, usize, usize, usize)> for Tensor4<T> {
    type Output = T;

    #[inline]
    fn index(&self, (k, c, h, w): (usize, usize, usize, usize)) -> &T {
        let i = self.offset(k, c, h, w);
        &self.data[i]
    }
}

impl<T> std::ops::IndexMut<(usize, usize, usize, usize)> for Tensor4<T> {
    #[inline]
    fn index_mut(&mut self, (k, c, h, w): (usize, usize, usize, usize)) -> &mut T {
        let i = self.offset(k, c, h, w);
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_chw() {
        let t = Tensor3::<i32>::from_fn(2, 2, 3, |c, h, w| (c * 100 + h * 10 + w) as i32);
        assert_eq!(
            t.as_slice(),
            &[0, 1, 2, 10, 11, 12, 100, 101, 102, 110, 111, 112]
        );
    }

    #[test]
    fn from_vec_validates() {
        assert!(Tensor3::from_vec(vec![0u8; 5], 1, 2, 3).is_err());
        assert!(Tensor3::from_vec(vec![0u8; 6], 1, 2, 3).is_ok());
        assert!(Tensor3::from_vec(Vec::<u8>::new(), 0, 2, 3).is_err());
        assert!(Tensor4::from_vec(vec![0u8; 24], 2, 2, 2, 3).is_ok());
        assert!(Tensor4::from_vec(vec![0u8; 23], 2, 2, 2, 3).is_err());
    }

    #[test]
    fn zero_padding_places_values_centrally() {
        let t = Tensor3::<f32>::from_fn(1, 2, 2, |_, h, w| (h * 2 + w) as f32 + 1.0);
        let p = t.zero_padded(1);
        assert_eq!(p.shape(), (1, 4, 4));
        assert_eq!(p[(0, 0, 0)], 0.0);
        assert_eq!(p[(0, 1, 1)], 1.0);
        assert_eq!(p[(0, 2, 2)], 4.0);
        assert_eq!(p[(0, 3, 3)], 0.0);
        let total: f32 = p.as_slice().iter().sum();
        assert_eq!(total, 10.0);
    }

    #[test]
    fn zero_padded_matches_per_element_padding() {
        for (c, h, w, pad) in [(3, 4, 5, 2), (2, 3, 3, 1), (1, 2, 2, 0), (4, 6, 6, 3)] {
            let t = Tensor3::<i8>::from_fn(c, h, w, |ci, hi, wi| (ci * 31 + hi * 7 + wi) as i8 + 1);
            let out = t.zero_padded(pad);
            let want = Tensor3::<i8>::from_fn(c, h + 2 * pad, w + 2 * pad, |ci, hi, wi| {
                let inside = (pad..pad + h).contains(&hi) && (pad..pad + w).contains(&wi);
                if inside {
                    t[(ci, hi - pad, wi - pad)]
                } else {
                    0
                }
            });
            assert_eq!(out, want, "({c}, {h}, {w}) pad {pad}");
        }
    }

    #[test]
    fn zero_padding_zero_is_clone() {
        let t = Tensor3::<i8>::from_fn(2, 3, 3, |c, h, w| (c + h + w) as i8);
        assert_eq!(t.zero_padded(0), t);
    }

    #[test]
    fn channel_slice_extracts_planes() {
        let t = Tensor3::<i32>::from_fn(4, 2, 2, |c, _, _| c as i32);
        let s = t.channel_slice(1, 2);
        assert_eq!(s.shape(), (2, 2, 2));
        assert!(s.as_slice()[..4].iter().all(|&v| v == 1));
        assert!(s.as_slice()[4..].iter().all(|&v| v == 2));
    }

    #[test]
    #[should_panic(expected = "channel range")]
    fn channel_slice_out_of_range_panics() {
        let t = Tensor3::<i32>::zeros(4, 2, 2);
        let _ = t.channel_slice(3, 2);
    }

    #[test]
    fn resize_zeroed_reuses_capacity_and_zeroes() {
        let mut t = Tensor3::<i32>::from_fn(4, 4, 4, |c, h, w| (c + h + w) as i32);
        let cap = t.data.capacity();
        t.resize_zeroed(2, 3, 3);
        assert_eq!(t.shape(), (2, 3, 3));
        assert!(t.as_slice().iter().all(|&v| v == 0));
        assert_eq!(t.data.capacity(), cap, "shrink must not reallocate");
        // Growing within capacity keeps the buffer too.
        t.resize_zeroed(4, 4, 4);
        assert_eq!(t.data.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn resize_zeroed_rejects_empty() {
        Tensor3::<u8>::zeros(1, 1, 1).resize_zeroed(0, 1, 1);
    }

    #[test]
    fn resize_for_overwrite_keeps_len_matched_contents_and_zeroes_growth() {
        let mut t = Tensor3::<i32>::from_fn(2, 2, 3, |c, h, w| (c * 100 + h * 10 + w) as i32);
        // Same element count: reshape only, contents (stale) preserved.
        t.resize_for_overwrite(3, 2, 2);
        assert_eq!(t.shape(), (3, 2, 2));
        assert_eq!(t.as_slice()[0], 0);
        assert_eq!(t.as_slice()[11], 112);
        // Different element count: behaves like resize_zeroed.
        t.resize_for_overwrite(2, 2, 2);
        assert_eq!(t.shape(), (2, 2, 2));
        assert!(t.as_slice().iter().all(|&v| v == 0));
    }

    #[test]
    fn reserve_capacity_prevents_later_allocation() {
        let mut t = Tensor3::<i32>::zeros(1, 1, 1);
        t.reserve_capacity(64);
        let cap = t.data.capacity();
        assert!(cap >= 64);
        t.resize_zeroed(4, 4, 4);
        assert_eq!(
            t.data.capacity(),
            cap,
            "resize within capacity must not reallocate"
        );
    }

    #[test]
    fn copy_window_to_slice_matches_from_fn_window() {
        let t = Tensor3::<i32>::from_fn(6, 7, 8, |c, h, w| (c * 100 + h * 10 + w) as i32);
        let mut win = Tensor3::<i32>::zeros(3, 4, 5);
        t.copy_window_to_slice((2, 1, 3), win.shape(), win.as_mut_slice());
        let expect = Tensor3::from_fn(3, 4, 5, |c, h, w| t[(2 + c, 1 + h, 3 + w)]);
        assert_eq!(win, expect);
        // Full-tensor window is an identity copy.
        let mut full = Tensor3::<i32>::zeros(6, 7, 8);
        t.copy_window_to_slice((0, 0, 0), full.shape(), full.as_mut_slice());
        assert_eq!(full, t);
    }

    #[test]
    #[should_panic(expected = "exceeds shape")]
    fn copy_window_to_slice_rejects_out_of_bounds() {
        let t = Tensor3::<i32>::zeros(2, 4, 4);
        let mut win = Tensor3::<i32>::zeros(1, 3, 3);
        t.copy_window_to_slice((0, 2, 2), win.shape(), win.as_mut_slice());
    }

    #[test]
    fn paste_window_is_inverse_of_copy_window_to_slice() {
        let t = Tensor3::<i32>::from_fn(4, 5, 6, |c, h, w| (c * 100 + h * 10 + w) as i32);
        let mut win = Tensor3::<i32>::zeros(2, 2, 3);
        t.copy_window_to_slice((1, 2, 1), win.shape(), win.as_mut_slice());
        let mut out = Tensor3::<i32>::zeros(4, 5, 6);
        out.paste_window(1, 2, 1, &win);
        for c in 0..2 {
            for h in 0..2 {
                for w in 0..3 {
                    assert_eq!(out[(1 + c, 2 + h, 1 + w)], t[(1 + c, 2 + h, 1 + w)]);
                }
            }
        }
        // Elements outside the window are untouched.
        assert_eq!(out[(0, 0, 0)], 0);
        assert_eq!(out[(3, 4, 5)], 0);
    }

    #[test]
    fn paste_window_of_whole_planes_lands_in_its_channel_slab() {
        let src = Tensor3::<i32>::from_fn(2, 3, 4, |c, h, w| (c * 100 + h * 10 + w) as i32 + 1);
        let mut out = Tensor3::<i32>::zeros(4, 3, 4);
        out.paste_window(1, 0, 0, &src);
        for ((c, h, w), &v) in out.indexed_iter() {
            let want = if (1..3).contains(&c) {
                src[(c - 1, h, w)]
            } else {
                0
            };
            assert_eq!(v, want, "({c}, {h}, {w})");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds shape")]
    fn paste_window_rejects_out_of_bounds() {
        let mut t = Tensor3::<i32>::zeros(2, 4, 4);
        let win = Tensor3::<i32>::zeros(1, 3, 3);
        t.paste_window(1, 2, 2, &win);
    }

    #[test]
    fn indexed_iter_covers_every_element_once() {
        let t = Tensor3::<i32>::from_fn(3, 4, 5, |c, h, w| (c * 20 + h * 5 + w) as i32);
        let mut count = 0;
        for ((c, h, w), &v) in t.indexed_iter() {
            assert_eq!(v, (c * 20 + h * 5 + w) as i32);
            count += 1;
        }
        assert_eq!(count, 60);
    }

    #[test]
    fn map_preserves_shape() {
        let t = Tensor3::<i8>::from_fn(2, 2, 2, |c, _, _| c as i8);
        let m: Tensor3<f32> = t.map(|&v| f32::from(v) * 2.0);
        assert_eq!(m.shape(), t.shape());
        assert_eq!(m[(1, 0, 0)], 2.0);
    }

    #[test]
    fn tensor4_kernel_and_channel_slices() {
        let t = Tensor4::<i32>::from_fn(4, 6, 1, 1, |k, c, _, _| (k * 10 + c) as i32);
        let ks = t.kernel_slice(2, 2);
        assert_eq!(ks.shape(), (2, 6, 1, 1));
        assert_eq!(ks[(0, 0, 0, 0)], 20);
        let cs = t.channel_slice(4, 2);
        assert_eq!(cs.shape(), (4, 2, 1, 1));
        assert_eq!(cs[(3, 1, 0, 0)], 35);
    }

    #[test]
    fn get_is_bounds_checked() {
        let t = Tensor3::<u8>::zeros(1, 1, 1);
        assert!(t.get(0, 0, 0).is_some());
        assert!(t.get(1, 0, 0).is_none());
        assert!(t.get(0, 1, 0).is_none());
        assert!(t.get(0, 0, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zeros_rejects_empty() {
        let _ = Tensor3::<u8>::zeros(0, 1, 1);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor3::<i32>::zeros(1, 2, 2);
        assert!(!format!("{t}").is_empty());
    }
}
