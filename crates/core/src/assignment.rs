//! Variable assignments and query masks for the MaxEnt polynomial.
//!
//! The polynomial `P` has one variable per 1D statistic (`α_j`, indexed by
//! attribute and value) and one per multi-dimensional statistic. A
//! [`VarAssignment`] holds current values for all of them. A [`Mask`] scales
//! 1D variables at evaluation time — the Sec. 4.2 query trick sets variables
//! of non-matching values to 0; the `SUM` extension scales them by bucket
//! representatives instead.

use crate::error::{ModelError, Result};
use crate::statistics::Statistics;
use entropydb_storage::{AttrId, Predicate};

/// Values for every variable of the model.
#[derive(Debug, Clone, PartialEq)]
pub struct VarAssignment {
    /// `one_dim[i][v]` = value of the 1D variable for attribute `i`, code `v`.
    pub one_dim: Vec<Vec<f64>>,
    /// `multi[j]` = value of the `j`-th multi-dimensional statistic variable.
    pub multi: Vec<f64>,
}

impl VarAssignment {
    /// The paper-recommended initialization: `α_{i,v} = s_{i,v} / n` (which
    /// solves the 1D-only model exactly and keeps `P ≈ 1`), multi-dimensional
    /// variables start neutral at 1.
    pub fn init_from(stats: &Statistics) -> Self {
        let n = stats.n() as f64;
        let one_dim = stats
            .one_dim()
            .iter()
            .map(|counts| {
                counts
                    .iter()
                    .map(|&c| if n > 0.0 { c as f64 / n } else { 0.0 })
                    .collect()
            })
            .collect();
        VarAssignment {
            one_dim,
            multi: vec![1.0; stats.multi().len()],
        }
    }

    /// An assignment with every 1D variable and every multi variable set to 1
    /// (under which `P` counts tuples). Useful for tests.
    pub fn ones(domain_sizes: &[usize], num_multi: usize) -> Self {
        VarAssignment {
            one_dim: domain_sizes.iter().map(|&n| vec![1.0; n]).collect(),
            multi: vec![1.0; num_multi],
        }
    }

    /// Checks all values are finite and non-negative 1D / finite multi.
    pub fn validate(&self) -> Result<()> {
        for vs in &self.one_dim {
            for &v in vs {
                if !v.is_finite() || v < 0.0 {
                    return Err(ModelError::NumericalFailure(
                        "non-finite or negative 1D variable",
                    ));
                }
            }
        }
        for &v in &self.multi {
            if !v.is_finite() {
                return Err(ModelError::NumericalFailure("non-finite multi variable"));
            }
        }
        Ok(())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.one_dim.len()
    }
}

/// Per-attribute multiplicative weights applied to 1D variables during
/// evaluation. `None` leaves an attribute untouched (weight 1 everywhere).
///
/// Each attribute also records, when its weights are set, whether exactly
/// one of them is non-zero: such an attribute is *pinned* to that code. The
/// pin is found once, when the weights are built or changed, so a kernel
/// answering a fully pinned point ([`crate::factorized`]) never scans them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Mask {
    attrs: Vec<AttrMask>,
}

/// One attribute of a [`Mask`]: its weights and, when exactly one of them
/// is non-zero, that code.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct AttrMask {
    weights: Option<Vec<f64>>,
    pin: Option<u32>,
}

impl AttrMask {
    /// Wraps one attribute's weights, finding its pin.
    pub(crate) fn new(weights: Option<Vec<f64>>) -> Self {
        let pin = weights.as_deref().and_then(pin_of);
        AttrMask { weights, pin }
    }
}

/// The one non-zero weight's code, or `None` when there are none or several.
fn pin_of(w: &[f64]) -> Option<u32> {
    let mut nonzero = w.iter().enumerate().filter(|(_, &x)| x != 0.0);
    match (nonzero.next(), nonzero.next()) {
        (Some((code, _)), None) => Some(code as u32),
        _ => None,
    }
}

impl Mask {
    /// The identity mask over `m` attributes.
    pub fn identity(m: usize) -> Self {
        Mask {
            attrs: vec![AttrMask::default(); m],
        }
    }

    /// Re-assembles a mask from explicit per-attribute weight vectors —
    /// the wire-decoding counterpart of [`Mask::attr_weights`], used by the
    /// shard probe protocol to transport masks between nodes verbatim.
    pub fn from_weights(weights: Vec<Option<Vec<f64>>>) -> Self {
        Self::from_attrs(weights.into_iter().map(AttrMask::new).collect())
    }

    /// A mask from attributes already wrapped (the probe decoder builds
    /// them as it reads).
    pub(crate) fn from_attrs(attrs: Vec<AttrMask>) -> Self {
        Mask { attrs }
    }

    /// Builds the Sec. 4.2 query mask for a conjunctive predicate: for every
    /// constrained attribute, matching values weigh 1 and non-matching
    /// values weigh 0; unconstrained attributes are untouched.
    pub fn from_predicate(pred: &Predicate, domain_sizes: &[usize]) -> Result<Self> {
        let mut mask = Mask::identity(domain_sizes.len());
        for (attr_idx, &size) in domain_sizes.iter().enumerate() {
            let attr = AttrId(attr_idx);
            let eff = pred.attr_predicate(attr, size);
            if eff.is_all() {
                continue;
            }
            let mut w = vec![0.0; size];
            let codes = eff.matching_codes(size);
            for &v in &codes {
                w[v as usize] = 1.0;
            }
            mask.attrs[attr_idx] = AttrMask {
                weights: Some(w),
                pin: match codes.as_slice() {
                    &[code] => Some(code),
                    _ => None,
                },
            };
        }
        // Reject predicates on attributes outside the schema.
        for (attr, _) in pred.clauses() {
            if attr.0 >= domain_sizes.len() {
                return Err(ModelError::Storage(
                    entropydb_storage::StorageError::AttrIdOutOfRange {
                        id: attr.0,
                        arity: domain_sizes.len(),
                    },
                ));
            }
        }
        Ok(mask)
    }

    /// Multiplies attribute `attr`'s weights by `values` (e.g. bucket
    /// midpoints, turning a COUNT mask into a SUM mask).
    pub fn scale_attr(mut self, attr: AttrId, values: &[f64]) -> Result<Self> {
        let slot = self
            .attrs
            .get_mut(attr.0)
            .ok_or(ModelError::ShapeMismatch)?;
        match &mut slot.weights {
            Some(w) => {
                if w.len() != values.len() {
                    return Err(ModelError::ShapeMismatch);
                }
                for (wi, &s) in w.iter_mut().zip(values) {
                    *wi *= s;
                }
                slot.pin = pin_of(w);
            }
            None => *slot = AttrMask::new(Some(values.to_vec())),
        }
        Ok(self)
    }

    /// Restricts attribute `attr` to the single code `v`, in place: reuses
    /// the attribute's existing weight buffer when present (the
    /// sequential-conditional sampler tightens one mask attribute per step
    /// and would otherwise reallocate per attribute).
    pub fn restrict_in_place(&mut self, attr: AttrId, v: u32, domain_size: usize) {
        let slot = &mut self.attrs[attr.0];
        match &mut slot.weights {
            Some(w) => {
                let keep = w[v as usize];
                w.fill(0.0);
                w[v as usize] = keep;
                slot.pin = (keep != 0.0).then_some(v);
            }
            None => {
                let mut w = vec![0.0; domain_size];
                w[v as usize] = 1.0;
                *slot = AttrMask {
                    weights: Some(w),
                    pin: Some(v),
                };
            }
        }
    }

    /// The weight applied to the 1D variable (attr `i`, code `v`).
    #[inline]
    pub fn weight(&self, attr: usize, v: u32) -> f64 {
        match &self.attrs[attr].weights {
            Some(w) => w[v as usize],
            None => 1.0,
        }
    }

    /// The weight vector for an attribute, if any is set.
    #[inline]
    pub fn attr_weights(&self, attr: usize) -> Option<&[f64]> {
        self.attrs[attr].weights.as_deref()
    }

    /// The code attribute `attr` is pinned to and its weight, when exactly
    /// one of its weights is non-zero.
    #[inline]
    pub fn pin(&self, attr: usize) -> Option<(u32, f64)> {
        let AttrMask { weights, pin } = &self.attrs[attr];
        match (weights, *pin) {
            (Some(w), Some(code)) => Some((code, w[code as usize])),
            _ => None,
        }
    }

    /// Number of attributes the mask spans.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the mask is the identity.
    pub fn is_identity(&self) -> bool {
        self.attrs.iter().all(|a| a.weights.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_from_predicate_zeroes_nonmatching() {
        let pred = Predicate::new().between(AttrId(0), 1, 2).eq(AttrId(2), 0);
        let mask = Mask::from_predicate(&pred, &[4, 3, 2]).unwrap();
        assert_eq!(mask.attr_weights(0), Some(&[0.0, 1.0, 1.0, 0.0][..]));
        assert_eq!(mask.attr_weights(1), None);
        assert_eq!(mask.attr_weights(2), Some(&[1.0, 0.0][..]));
        assert_eq!(mask.weight(1, 2), 1.0);
        assert!(!mask.is_identity());
    }

    /// A pin is the one non-zero weight, found wherever weights are built
    /// or changed.
    #[test]
    fn pins_track_the_one_non_zero_weight() {
        let sizes = [4, 3];
        let point = Predicate::new().eq(AttrId(0), 2).between(AttrId(1), 0, 1);
        let mask = Mask::from_predicate(&point, &sizes).unwrap();
        assert_eq!((mask.pin(0), mask.pin(1)), (Some((2, 1.0)), None));
        // SUM weights keep the pin unless they zero the pinned code.
        let sum = mask.clone().scale_attr(AttrId(0), &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(sum.unwrap().pin(0), Some((2, 7.0)));
        let zeroed = mask.clone().scale_attr(AttrId(0), &[1.0, 1.0, 0.0, 1.0]);
        assert_eq!(zeroed.unwrap().pin(0), None);
        let narrowed = mask.clone().scale_attr(AttrId(1), &[0.0, 3.0, 4.0]);
        assert_eq!(narrowed.unwrap().pin(1), Some((1, 3.0)));
        let mut sampled = mask;
        sampled.restrict_in_place(AttrId(1), 1, 3);
        assert_eq!(sampled.pin(1), Some((1, 1.0)));
        sampled.restrict_in_place(AttrId(0), 1, 4);
        assert_eq!(sampled.pin(0), None);
        // Decoded weights: `-0.0` is zero, and an identity attribute is free.
        let decoded = Mask::from_weights(vec![Some(vec![-0.0, 0.5, 0.0]), None]);
        assert_eq!((decoded.pin(0), decoded.pin(1)), (Some((1, 0.5)), None));
        assert_eq!(Mask::from_weights(vec![Some(vec![1.0, 1.0])]).pin(0), None);
        assert_eq!(Mask::from_weights(vec![Some(vec![0.0, 0.0])]).pin(0), None);
    }

    #[test]
    fn identity_mask() {
        let mask = Mask::identity(3);
        assert!(mask.is_identity());
        assert_eq!(mask.weight(0, 5), 1.0);
    }

    #[test]
    fn out_of_schema_predicate_rejected() {
        let pred = Predicate::new().eq(AttrId(5), 0);
        assert!(Mask::from_predicate(&pred, &[2, 2]).is_err());
    }

    #[test]
    fn scale_composes_with_predicate_mask() {
        let pred = Predicate::new().between(AttrId(0), 1, 3);
        let mask = Mask::from_predicate(&pred, &[4])
            .unwrap()
            .scale_attr(AttrId(0), &[10.0, 20.0, 30.0, 40.0])
            .unwrap();
        assert_eq!(mask.attr_weights(0), Some(&[0.0, 20.0, 30.0, 40.0][..]));
    }

    #[test]
    fn restrict_in_place() {
        let pred = Predicate::new().between(AttrId(0), 2, 3);
        let mut mask = Mask::from_predicate(&pred, &[4]).unwrap();
        mask.restrict_in_place(AttrId(0), 3, 4);
        assert_eq!(mask.attr_weights(0), Some(&[0.0, 0.0, 0.0, 1.0][..]));
        mask.restrict_in_place(AttrId(0), 1, 4);
        // Code 1 was already masked out, so nothing survives.
        assert_eq!(mask.attr_weights(0), Some(&[0.0, 0.0, 0.0, 0.0][..]));
        assert_eq!(mask.arity(), 1);
    }

    #[test]
    fn restrict_in_place_respects_existing_mask() {
        let pred = Predicate::new().between(AttrId(0), 2, 3);
        let mut mask = Mask::from_predicate(&pred, &[4]).unwrap();
        mask.restrict_in_place(AttrId(0), 1, 4);
        // Code 1 was excluded by the predicate, so it stays 0.
        assert_eq!(mask.attr_weights(0), Some(&[0.0, 0.0, 0.0, 0.0][..]));
        let mut mask2 = Mask::identity(1);
        mask2.restrict_in_place(AttrId(0), 1, 4);
        assert_eq!(mask2.attr_weights(0), Some(&[0.0, 1.0, 0.0, 0.0][..]));
    }

    #[test]
    fn init_assignment_matches_marginals() {
        use crate::statistics::Statistics;
        let stats =
            Statistics::from_parts(10, vec![2, 2], vec![vec![3, 7], vec![5, 5]], vec![], vec![])
                .unwrap();
        let a = VarAssignment::init_from(&stats);
        assert_eq!(a.one_dim[0], vec![0.3, 0.7]);
        assert_eq!(a.one_dim[1], vec![0.5, 0.5]);
        assert!(a.multi.is_empty());
        a.validate().unwrap();
    }
}
