//! The unified request type accepted by `ServeRuntime::submit`.
//!
//! One builder replaces the four positional `submit*` variants that had
//! accreted (`submit`, `submit_class`, `submit_model`,
//! `submit_model_class`): `frame` is required, everything else is
//! optional and defaults to the runtime's defaults. The gateway's
//! `/v1/classify` JSON body mirrors this struct key-for-key
//! (`frame`/`model`/`class`/`quality`).
//!
//! [`SubmitRequest::admit`] is the one admission check: a solo runtime
//! and a fleet router run it in the same order, so the same request
//! gets the same [`ServeError`] from either.
//!
//! `From<Vec<f32>>` keeps the common one-liner working unchanged:
//! `rt.submit(vec![0.5, 0.25])` is `rt.submit(SubmitRequest::new(...))`.

use crate::ServeError;

/// One classify request: a frame plus optional routing knobs.
///
/// ```
/// use tn_serve::SubmitRequest;
/// let req = SubmitRequest::new(vec![0.5, 0.25])
///     .model(0)
///     .class(0)
///     .quality("fast");
/// assert_eq!(req.quality.as_deref(), Some("fast"));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SubmitRequest {
    /// Input frame: per-channel spike rates in `[0, 1]`.
    pub frame: Vec<f32>,
    /// Tenant model on a packed runtime (default `0`, the only valid
    /// value on a solo runtime).
    pub model: usize,
    /// Request class for the controller's per-class spf actuator
    /// (default `0`).
    pub class: usize,
    /// Quality tier name; `None` serves on the runtime's default
    /// replica set at the live spf.
    pub quality: Option<String>,
    /// Explicit determinism sequence number; `None` (the default) lets
    /// the runtime claim the next one. See [`SubmitRequest::at_seq`].
    pub seq: Option<u64>,
}

impl SubmitRequest {
    /// A request for `frame` with default model, class, no tier, and a
    /// runtime-assigned sequence number.
    pub fn new(frame: Vec<f32>) -> Self {
        Self {
            frame,
            model: 0,
            class: 0,
            quality: None,
            seq: None,
        }
    }

    /// Route to tenant `model` on a packed runtime.
    #[must_use]
    pub fn model(mut self, model: usize) -> Self {
        self.model = model;
        self
    }

    /// Tag with request `class` for per-class spf control.
    #[must_use]
    pub fn class(mut self, class: usize) -> Self {
        self.class = class;
        self
    }

    /// Serve on the named quality tier.
    #[must_use]
    pub fn quality(mut self, quality: impl Into<String>) -> Self {
        self.quality = Some(quality.into());
        self
    }

    /// Pin the request's determinism sequence number instead of letting
    /// the runtime claim the next one — *shard-addressable submission*.
    ///
    /// A response is a pure function of `(cfg.seed, seq, spf)`, so a
    /// front-end that owns the sequence counter (the `tn-fleet` router)
    /// can dispatch request `k` to *any* shard built from the same
    /// `(spec, config)` and get an answer bit-identical to a solo
    /// runtime's `k`-th request — including after re-routing to a
    /// different shard on connection loss.
    ///
    /// The runtime's own counter is advanced past an explicit seq, so
    /// occasional mixing cannot hand out a duplicate; but interleaving
    /// explicit and automatic submissions makes the *automatic* seqs
    /// depend on arrival order, so pick one scheme per runtime. On
    /// packed runtimes the per-model determinism key is still the
    /// per-model submission counter, not this global seq.
    #[must_use]
    pub fn at_seq(mut self, seq: u64) -> Self {
        self.seq = Some(seq);
        self
    }

    /// The one admission check, in one order: model → class → quality
    /// tier → frame width → input range, against each model's
    /// `(n_inputs, n_classes)`, the class count and the tier names.
    /// Returns the requested tier's index; allocates only on error.
    ///
    /// # Errors
    ///
    /// The first of `UnknownModel`, `UnknownClass`, `UnknownQuality`,
    /// `BadInput` and `InputOutOfRange` that applies.
    pub fn admit<'t>(
        &self,
        model_dims: &[(usize, usize)],
        classes: usize,
        tiers: impl Iterator<Item = &'t str> + Clone,
    ) -> Result<Option<usize>, ServeError> {
        let (model, class, models) = (self.model, self.class, model_dims.len());
        let Some(&(n_inputs, _)) = model_dims.get(model) else {
            return Err(ServeError::UnknownModel { model, models });
        };
        if class >= classes {
            return Err(ServeError::UnknownClass { class, classes });
        }
        let tier = match &self.quality {
            None => None,
            Some(name) => Some(tiers.clone().position(|t| t == name).ok_or_else(|| {
                let tiers = tiers.map(str::to_string).collect();
                ServeError::UnknownQuality { quality: name.clone(), tiers }
            })?),
        };
        check_frame(&self.frame, n_inputs)?;
        Ok(tier)
    }
}

/// The frame half of [`SubmitRequest::admit`]: `n_inputs` wide, every
/// value in `[0, 1]`.
pub(crate) fn check_frame(frame: &[f32], n_inputs: usize) -> Result<(), ServeError> {
    if frame.len() != n_inputs {
        return Err(ServeError::BadInput { expected: n_inputs, got: frame.len() });
    }
    match frame.iter().position(|v| !(0.0..=1.0).contains(v)) {
        Some(channel) => Err(ServeError::InputOutOfRange { channel, value: frame[channel] }),
        None => Ok(()),
    }
}

impl From<Vec<f32>> for SubmitRequest {
    fn from(frame: Vec<f32>) -> Self {
        Self::new(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_setters() {
        let req = SubmitRequest::new(vec![1.0]);
        assert_eq!((req.model, req.class, req.quality.as_deref()), (0, 0, None));
        assert_eq!(req.seq, None);
        let req = SubmitRequest::new(vec![1.0]).model(2).class(1).quality("q");
        assert_eq!(
            (req.model, req.class, req.quality.as_deref()),
            (2, 1, Some("q"))
        );
        let req = SubmitRequest::new(vec![1.0]).at_seq(41);
        assert_eq!(req.seq, Some(41));
    }

    #[test]
    fn admit_checks_model_class_tier_width_range_in_order() {
        let dims = [(2, 3), (1, 2)];
        let tiers = ["fast", "certain"];
        let admit = |req: SubmitRequest| req.admit(&dims, 2, tiers.iter().copied());
        assert_eq!(admit(SubmitRequest::new(vec![0.0, 1.0])), Ok(None));
        assert_eq!(
            admit(SubmitRequest::new(vec![0.5]).model(1).quality("certain")),
            Ok(Some(1))
        );
        // Every check fails below; the earliest in the order wins.
        let all_wrong = SubmitRequest::new(vec![2.0]).model(5).class(9).quality("warp");
        assert_eq!(
            admit(all_wrong.clone()),
            Err(ServeError::UnknownModel { model: 5, models: 2 })
        );
        assert_eq!(
            admit(all_wrong.clone().model(0)),
            Err(ServeError::UnknownClass { class: 9, classes: 2 })
        );
        assert_eq!(
            admit(all_wrong.clone().model(0).class(1)),
            Err(ServeError::UnknownQuality {
                quality: "warp".to_string(),
                tiers: vec!["fast".to_string(), "certain".to_string()],
            })
        );
        assert_eq!(
            admit(all_wrong.clone().model(0).class(1).quality("fast")),
            Err(ServeError::BadInput { expected: 2, got: 1 })
        );
        assert_eq!(
            admit(SubmitRequest::new(vec![0.5, f32::NAN])).map_err(|e| e.to_string()),
            Err("input channel 1 = NaN outside normalized [0, 1]".to_string())
        );
    }

    #[test]
    fn from_vec_is_the_default_request() {
        let req: SubmitRequest = vec![0.5f32].into();
        assert_eq!(req, SubmitRequest::new(vec![0.5]));
    }
}
