//! Streaming top-k selection with `O(k)` memory.
//!
//! Section III-D of the paper: devices keep a fixed-size buffer of the `k`
//! gradients of pruned parameters with the largest magnitude. When a new
//! gradient arrives and the buffer is full, it replaces the current minimum
//! if its magnitude is larger, otherwise it is discarded. Memory stays
//! `O(k)` regardless of layer size.

/// Fixed-capacity buffer retaining the `k` `(index, value)` pairs with the
/// largest `|value|` seen so far.
///
/// Backed by a binary min-heap keyed on `|value|`, so each push is
/// `O(log k)` and memory is exactly `O(k)`.
///
/// # Examples
///
/// ```
/// use ft_sparse::TopKBuffer;
///
/// let mut buf = TopKBuffer::new(2);
/// buf.push(0, 1.0);
/// buf.push(1, -5.0);
/// buf.push(2, 3.0);
/// let mut top = buf.into_sorted();
/// assert_eq!(top.len(), 2);
/// assert_eq!(top[0], (1, -5.0)); // largest magnitude first
/// assert_eq!(top[1], (2, 3.0));
/// ```
#[derive(Clone, Debug)]
pub struct TopKBuffer {
    k: usize,
    // Min-heap on |value|: heap[0] is the smallest-magnitude entry.
    heap: Vec<(usize, f32)>,
}

impl TopKBuffer {
    /// Creates a buffer retaining at most `k` entries. `k = 0` is allowed and
    /// results in a buffer that retains nothing.
    pub fn new(k: usize) -> Self {
        TopKBuffer {
            k,
            heap: Vec::with_capacity(k),
        }
    }

    /// Capacity `k` of the buffer.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Current number of retained entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the buffer currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers one `(index, value)` pair. Non-finite values are ignored.
    pub fn push(&mut self, index: usize, value: f32) {
        if self.k == 0 || !value.is_finite() {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push((index, value));
            self.sift_up(self.heap.len() - 1);
        } else if value.abs() > self.heap[0].1.abs() {
            self.heap[0] = (index, value);
            self.sift_down(0);
        }
    }

    /// Offers every element of a slice, using positions as indices.
    pub fn extend_from_slice(&mut self, values: &[f32]) {
        for (i, &v) in values.iter().enumerate() {
            self.push(i, v);
        }
    }

    /// Consumes the buffer, returning retained pairs sorted by descending
    /// `|value|` (ties broken by ascending index for determinism).
    pub fn into_sorted(self) -> Vec<(usize, f32)> {
        let mut v = self.heap;
        v.sort_by(by_magnitude_then_index);
        v
    }

    /// The smallest retained magnitude, if any.
    pub fn min_abs(&self) -> Option<f32> {
        self.heap.first().map(|&(_, v)| v.abs())
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].1.abs() < self.heap[parent].1.abs() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < n && self.heap[l].1.abs() < self.heap[smallest].1.abs() {
                smallest = l;
            }
            if r < n && self.heap[r].1.abs() < self.heap[smallest].1.abs() {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

/// Descending `|value|`, ties by ascending index.
fn by_magnitude_then_index(a: &(usize, f32), b: &(usize, f32)) -> std::cmp::Ordering {
    b.1.abs()
        .partial_cmp(&a.1.abs())
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.0.cmp(&b.0))
}

/// The `k` pairs with the largest `|value|`, in the order
/// [`TopKBuffer::into_sorted`] documents: descending `|value|`, ties broken
/// by ascending index. Unlike the streaming buffer — which keeps whichever
/// tied entry arrived first and evicts an arbitrary one of several tied
/// minima — the result does not depend on the order `pairs` arrive in.
/// Non-finite values are skipped, as [`TopKBuffer::push`] does. It holds
/// every pair at once, so it suits a server that already does.
pub fn top_k_sorted(pairs: impl IntoIterator<Item = (usize, f32)>, k: usize) -> Vec<(usize, f32)> {
    let mut v: Vec<(usize, f32)> = pairs.into_iter().filter(|p| p.1.is_finite()).collect();
    v.sort_by(by_magnitude_then_index);
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keeps_top_k_by_magnitude() {
        let mut buf = TopKBuffer::new(3);
        for (i, v) in [0.5f32, -2.0, 1.0, 0.1, 3.0, -0.7].iter().enumerate() {
            buf.push(i, *v);
        }
        let top = buf.into_sorted();
        let idx: Vec<usize> = top.iter().map(|&(i, _)| i).collect();
        assert_eq!(idx, vec![4, 1, 2]); // 3.0, -2.0, 1.0
    }

    #[test]
    fn capacity_zero_retains_nothing() {
        let mut buf = TopKBuffer::new(0);
        buf.push(0, 100.0);
        assert!(buf.is_empty());
        assert!(buf.into_sorted().is_empty());
    }

    #[test]
    fn fewer_elements_than_k() {
        let mut buf = TopKBuffer::new(10);
        buf.push(3, 1.0);
        buf.push(7, -2.0);
        let top = buf.into_sorted();
        assert_eq!(top, vec![(7, -2.0), (3, 1.0)]);
    }

    #[test]
    fn ignores_non_finite() {
        let mut buf = TopKBuffer::new(2);
        buf.push(0, f32::NAN);
        buf.push(1, f32::INFINITY);
        buf.push(2, 1.0);
        assert_eq!(buf.into_sorted(), vec![(2, 1.0)]);
    }

    #[test]
    fn min_abs_tracks_threshold() {
        let mut buf = TopKBuffer::new(2);
        assert_eq!(buf.min_abs(), None);
        buf.push(0, -4.0);
        buf.push(1, 1.0);
        assert_eq!(buf.min_abs(), Some(1.0));
        buf.push(2, 2.0); // evicts 1.0
        assert_eq!(buf.min_abs(), Some(2.0));
    }

    #[test]
    fn extend_from_slice_uses_positions() {
        let mut buf = TopKBuffer::new(1);
        buf.extend_from_slice(&[0.0, 5.0, -1.0]);
        assert_eq!(buf.into_sorted(), vec![(1, 5.0)]);
    }

    /// Tied aggregated gradients: the grow set keeps the lowest tied
    /// indices whatever the arrival order, where the streaming buffer keeps
    /// an arrival-order-dependent one.
    #[test]
    fn top_k_sorted_breaks_ties_by_ascending_index() {
        let pairs = [(5, 1.0f32), (2, -1.0), (9, 1.0), (7, 2.0), (0, f32::NAN)];
        let expect = vec![(7, 2.0), (2, -1.0)];
        let mut order = pairs.to_vec();
        for rot in 0..order.len() {
            order.rotate_left(1);
            assert_eq!(
                top_k_sorted(order.iter().copied(), 2),
                expect,
                "rotation {rot}"
            );
            order.reverse();
            assert_eq!(
                top_k_sorted(order.iter().copied(), 2),
                expect,
                "reversed {rot}"
            );
        }
        // Fed in ascending index order, the buffer evicts the first-come
        // tied minimum when the larger value arrives and ends up with 5.
        let mut buf = TopKBuffer::new(2);
        for (i, v) in [(2usize, -1.0f32), (5, 1.0), (7, 2.0), (9, 1.0)] {
            buf.push(i, v);
        }
        assert_eq!(buf.into_sorted(), vec![(7, 2.0), (5, 1.0)]);
        assert!(top_k_sorted(pairs, 0).is_empty());
        assert_eq!(top_k_sorted(pairs, 10).len(), 4);
    }

    proptest! {
        /// The buffer must agree with a full sort for any input.
        #[test]
        fn matches_full_sort(values in proptest::collection::vec(-100.0f32..100.0, 0..200), k in 0usize..20) {
            let mut buf = TopKBuffer::new(k);
            buf.extend_from_slice(&values);
            let got: Vec<usize> = buf.into_sorted().into_iter().map(|(i, _)| i).collect();

            let mut all: Vec<(usize, f32)> = values.iter().cloned().enumerate().collect();
            all.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).unwrap().then(a.0.cmp(&b.0)));
            let expect: Vec<usize> = all.into_iter().take(k.min(values.len())).map(|(i, _)| i).collect();

            // Compare magnitudes rather than exact indices: equal-magnitude
            // ties may legitimately retain either index depending on arrival
            // order (the paper's buffer has the same property).
            let got_mags: Vec<f32> = got.iter().map(|&i| values[i].abs()).collect();
            let expect_mags: Vec<f32> = expect.iter().map(|&i| values[i].abs()).collect();
            prop_assert_eq!(got_mags, expect_mags);
        }

        /// Memory bound: the heap never exceeds k entries.
        #[test]
        fn never_exceeds_capacity(values in proptest::collection::vec(-10.0f32..10.0, 0..100), k in 0usize..10) {
            let mut buf = TopKBuffer::new(k);
            for (i, &v) in values.iter().enumerate() {
                buf.push(i, v);
                prop_assert!(buf.len() <= k);
            }
        }
    }
}
