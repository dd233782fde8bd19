//! Quantization of numeric attributes into equal-width bins.
//!
//! Algorithm 2 (line 2) partitions a continuous first attribute into `q`
//! bins before applying the Gaussian mechanism, and Algorithm 3 samples "a
//! bin, then a value from the domain represented by the bin". Marginal
//! queries (Metric III) and the order index in the constraint engine also
//! need a discrete view of numeric attributes. [`Quantizer`] centralizes
//! that mapping.

use rand::Rng;

use crate::schema::{AttrKind, Attribute};
use crate::value::Value;

/// Maps values of one attribute to discrete bins and back.
///
/// For categorical attributes the mapping is the identity on codes; for
/// numeric attributes it is equal-width binning over `[min, max]`.
#[derive(Debug, Clone)]
pub struct Quantizer {
    kind: QKind,
}

#[derive(Debug, Clone)]
enum QKind {
    Cat {
        card: usize,
    },
    Num {
        min: f64,
        max: f64,
        bins: usize,
        integer: bool,
    },
}

impl Quantizer {
    /// Builds the quantizer for `attr`.
    pub fn for_attr(attr: &Attribute) -> Quantizer {
        match &attr.kind {
            AttrKind::Categorical { labels } => Quantizer {
                kind: QKind::Cat { card: labels.len() },
            },
            AttrKind::Numeric {
                min,
                max,
                bins,
                integer,
            } => Quantizer {
                kind: QKind::Num {
                    min: *min,
                    max: *max,
                    bins: *bins,
                    integer: *integer,
                },
            },
        }
    }

    /// Number of bins.
    #[inline]
    pub fn n_bins(&self) -> usize {
        match self.kind {
            QKind::Cat { card } => card,
            QKind::Num { bins, .. } => bins,
        }
    }

    /// Bin index of a value. Numeric values outside `[min, max]` are clamped
    /// into the boundary bins, matching how histogram code treats noisy or
    /// out-of-range synthetic values.
    #[inline]
    pub fn bin(&self, v: Value) -> usize {
        self.bin_checked(v).0
    }

    /// [`Quantizer::bin`] plus an out-of-domain flag. The flag is `true`
    /// exactly when a *categorical* code lies past the declared domain —
    /// an encoding bug in whatever produced the value, which this method
    /// folds into the last bin (never panics, never drops the count).
    /// Numeric values outside `[min, max]` clamp into the boundary bins
    /// with the flag `false`: that is expected behaviour for noisy or
    /// synthetic continuous values, not a domain violation.
    ///
    /// This is the single primitive behind
    /// `stats::histogram_with_clamped`, the baselines' `Discretized`
    /// view, and the eval crate's marginal tables, so every consumer
    /// treats an out-of-domain cell identically: fold, count, carry on.
    #[inline]
    pub fn bin_checked(&self, v: Value) -> (usize, bool) {
        match (&self.kind, v) {
            (QKind::Cat { card }, Value::Cat(c)) => {
                let c = c as usize;
                (c.min(card - 1), c >= *card)
            }
            (QKind::Num { min, max, bins, .. }, Value::Num(x)) => {
                if !x.is_finite() {
                    return (0, false);
                }
                let t = (x - min) / (max - min);
                let b = (t * *bins as f64).floor() as isize;
                (b.clamp(0, *bins as isize - 1) as usize, false)
            }
            _ => panic!("value kind does not match quantizer kind"),
        }
    }

    /// A representative value for `bin` (bin midpoint for numeric, the code
    /// itself for categorical).
    pub fn representative(&self, bin: usize) -> Value {
        match &self.kind {
            QKind::Cat { card } => Value::Cat(bin.min(card - 1) as u32),
            QKind::Num {
                min,
                max,
                bins,
                integer,
            } => {
                let w = (max - min) / *bins as f64;
                let mid = min + (bin as f64 + 0.5) * w;
                Value::Num(if *integer { mid.round() } else { mid })
            }
        }
    }

    /// Samples a uniform value within `bin` (Algorithm 3 line 2: "sample a
    /// bin, and randomly take a value from the domain represented by the
    /// bin"), with one RNG draw for a numeric quantizer.
    ///
    /// On an integer attribute the value is uniform over the integers of
    /// `[min, max]` whose [`Quantizer::bin`] is `bin`. A bin narrower than
    /// one unit may hold no integer; it returns
    /// [`Quantizer::representative`], its rounded midpoint.
    pub fn sample_in_bin<R: Rng + ?Sized>(&self, bin: usize, rng: &mut R) -> Value {
        match &self.kind {
            QKind::Cat { card } => Value::Cat(bin.min(card - 1) as u32),
            QKind::Num {
                min,
                max,
                bins,
                integer,
            } => {
                let u = rng.gen::<f64>();
                let w = (max - min) / *bins as f64;
                if !*integer {
                    return Value::Num(min + bin as f64 * w + u * w);
                }
                let (first, end) = (self.first_integer(bin), self.first_integer(bin + 1));
                if first >= end {
                    return self.representative(bin);
                }
                let k = first + (u * (end - first)).floor();
                Value::Num(k.min(end - 1.0))
            }
        }
    }

    /// The smallest integer of `[min, max]` whose bin is at least `bin`
    /// (`⌊max⌋ + 1` when there is none), so the integers of bin `b` are
    /// `[first_integer(b), first_integer(b + 1))`. Starts from the bin's
    /// real lower edge and steps past any rounding at the boundary.
    fn first_integer(&self, bin: usize) -> f64 {
        let QKind::Num { min, max, bins, .. } = self.kind else {
            unreachable!("integer bins belong to numeric quantizers")
        };
        let (lowest, highest) = (min.ceil(), max.floor());
        if bin >= bins {
            return highest + 1.0;
        }
        let in_bin_or_above = |k: f64| self.bin(Value::Num(k)) >= bin;
        let mut k = (min + bin as f64 * (max - min) / bins as f64)
            .ceil()
            .clamp(lowest, highest + 1.0);
        while k > lowest && in_bin_or_above(k - 1.0) {
            k -= 1.0;
        }
        while k <= highest && !in_bin_or_above(k) {
            k += 1.0;
        }
        k
    }

    /// Clamps (and for integer attributes rounds) a numeric value into the
    /// attribute domain; identity for categorical quantizers.
    pub fn clamp(&self, v: Value) -> Value {
        match (&self.kind, v) {
            (
                QKind::Num {
                    min, max, integer, ..
                },
                Value::Num(x),
            ) => {
                let c = x.clamp(*min, *max);
                Value::Num(if *integer { c.round() } else { c })
            }
            _ => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn num_q() -> Quantizer {
        Quantizer::for_attr(&Attribute::numeric("x", 0.0, 10.0, 5).unwrap())
    }

    #[test]
    fn numeric_binning_is_equal_width() {
        let q = num_q();
        assert_eq!(q.n_bins(), 5);
        assert_eq!(q.bin(Value::Num(0.0)), 0);
        assert_eq!(q.bin(Value::Num(1.99)), 0);
        assert_eq!(q.bin(Value::Num(2.0)), 1);
        assert_eq!(q.bin(Value::Num(9.99)), 4);
        // the max value lands in the last bin, not a phantom 6th bin
        assert_eq!(q.bin(Value::Num(10.0)), 4);
    }

    #[test]
    fn out_of_range_clamps_to_boundary_bins() {
        let q = num_q();
        assert_eq!(q.bin(Value::Num(-3.0)), 0);
        assert_eq!(q.bin(Value::Num(42.0)), 4);
        assert_eq!(q.bin(Value::Num(f64::NAN)), 0);
    }

    #[test]
    fn representative_is_bin_midpoint() {
        let q = num_q();
        assert_eq!(q.representative(0), Value::Num(1.0));
        assert_eq!(q.representative(4), Value::Num(9.0));
    }

    #[test]
    fn integer_representative_rounds() {
        let q = Quantizer::for_attr(&Attribute::integer("x", 0.0, 9.0, 3).unwrap());
        for b in 0..3 {
            let Value::Num(x) = q.representative(b) else {
                panic!()
            };
            assert_eq!(x, x.round());
        }
    }

    #[test]
    fn sample_in_bin_stays_in_bin() {
        let q = num_q();
        let mut rng = StdRng::seed_from_u64(7);
        for bin in 0..5 {
            for _ in 0..50 {
                let v = q.sample_in_bin(bin, &mut rng);
                assert_eq!(q.bin(v), bin, "sampled {v} escaped bin {bin}");
            }
        }
    }

    #[test]
    fn integer_sample_in_bin_stays_in_bin() {
        // bin b of a 16-bin [0, 15] attribute spans [0.9375·b, 0.9375·(b+1)),
        // so b is its only integer: rounding a real draw lands in a
        // neighbour
        let q = Quantizer::for_attr(&Attribute::integer("x", 0.0, 15.0, 16).unwrap());
        let mut rng = StdRng::seed_from_u64(7);
        for bin in 0..16 {
            for _ in 0..20 {
                assert_eq!(q.sample_in_bin(bin, &mut rng), Value::Num(bin as f64));
            }
        }
        // wide bins: every integer of the bin is drawn, nothing outside it
        let q = Quantizer::for_attr(&Attribute::integer("x", 1.0, 16.0, 4).unwrap());
        for bin in 0..4 {
            let mut seen = [false; 17];
            for _ in 0..200 {
                let v = q.sample_in_bin(bin, &mut rng);
                assert_eq!(q.bin(v), bin, "sampled {v} escaped bin {bin}");
                seen[v.num() as usize] = true;
            }
            let members = (1..=16).filter(|&k| q.bin(Value::Num(k as f64)) == bin);
            assert!(members.into_iter().all(|k| seen[k]), "bin {bin}");
        }
    }

    #[test]
    fn integer_bin_without_an_integer_returns_its_representative() {
        // [0, 3] in 10 bins: bin 1 spans [0.3, 0.6), which holds no integer
        let q = Quantizer::for_attr(&Attribute::integer("x", 0.0, 3.0, 10).unwrap());
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(q.sample_in_bin(1, &mut rng), q.representative(1));
        assert_eq!(q.sample_in_bin(0, &mut rng), Value::Num(0.0));
        assert_eq!(q.sample_in_bin(9, &mut rng), Value::Num(3.0));
    }

    #[test]
    fn categorical_quantizer_is_identity() {
        let q = Quantizer::for_attr(&Attribute::categorical_indexed("c", 4).unwrap());
        assert_eq!(q.n_bins(), 4);
        assert_eq!(q.bin(Value::Cat(2)), 2);
        assert_eq!(q.representative(2), Value::Cat(2));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(q.sample_in_bin(3, &mut rng), Value::Cat(3));
    }

    #[test]
    fn bin_checked_flags_only_categorical_overflow() {
        let qc = Quantizer::for_attr(&Attribute::categorical_indexed("c", 3).unwrap());
        assert_eq!(qc.bin_checked(Value::Cat(2)), (2, false));
        // out-of-domain code: folded into the last bin, flagged
        assert_eq!(qc.bin_checked(Value::Cat(9)), (2, true));
        // numeric out-of-range clamps without flagging — expected behaviour
        let qn = num_q();
        assert_eq!(qn.bin_checked(Value::Num(42.0)), (4, false));
        assert_eq!(qn.bin_checked(Value::Num(-1.0)), (0, false));
        assert_eq!(qn.bin_checked(Value::Num(f64::NAN)), (0, false));
    }

    #[test]
    fn clamp_respects_domain() {
        let q = num_q();
        assert_eq!(q.clamp(Value::Num(-5.0)), Value::Num(0.0));
        assert_eq!(q.clamp(Value::Num(15.0)), Value::Num(10.0));
        assert_eq!(q.clamp(Value::Num(3.5)), Value::Num(3.5));
        let qi = Quantizer::for_attr(&Attribute::integer("x", 0.0, 9.0, 3).unwrap());
        assert_eq!(qi.clamp(Value::Num(4.4)), Value::Num(4.0));
    }
}
