//! The prediction API: one batch-first [`Predictor`] interface that the
//! server, the CLI, the bench harness, and the baselines all speak.
//!
//! - **batch is the primitive** — [`Predictor::locate_batch`] takes a slice
//!   of [`PredictRequest`]s and fans out across the `edge-par` pool;
//!   [`Predictor::locate`] is the single-request delegate;
//! - **options are explicit** — the zero-entity fallback policy is a
//!   [`PredictOptions`] field, passed per call;
//! - **abstention is typed** — a tweet without known entities is
//!   `Err(PredictError::NoEntities)`, never a bare `None`;
//! - **evaluation is typed** — [`Predictor::evaluate`] returns an
//!   [`EvalOutcome`] (pairs, coverage, abstained count) instead of a tuple.
//!
//! The point-estimate [`Geolocator`] facade lives here too, with a blanket
//! implementation for every `Predictor`, so EDGE, BOW and the classical
//! baselines are all scored through one interface.

use edge_data::Tweet;
use edge_geo::{DistanceReport, Point};

use crate::error::PredictError;
use crate::model::Prediction;

/// What to predict from: raw tweet text (entity recognition runs inside the
/// predictor) or pre-resolved entity indices (the server's cache path and
/// the interpretability tooling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictInput {
    /// A tweet text; the predictor resolves entities itself.
    Text(String),
    /// Already-resolved entity indices into the predictor's entity
    /// inventory.
    Entities(Vec<usize>),
}

/// One prediction request (the unit [`Predictor::locate_batch`] batches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictRequest {
    /// What to locate.
    pub input: PredictInput,
}

impl PredictRequest {
    /// A request from raw tweet text.
    pub fn text(text: impl Into<String>) -> Self {
        Self { input: PredictInput::Text(text.into()) }
    }

    /// A request from pre-resolved entity indices.
    pub fn entities(ids: impl Into<Vec<usize>>) -> Self {
        Self { input: PredictInput::Entities(ids.into()) }
    }
}

impl From<&str> for PredictRequest {
    fn from(text: &str) -> Self {
        Self::text(text)
    }
}

impl From<String> for PredictRequest {
    fn from(text: String) -> Self {
        Self::text(text)
    }
}

/// Per-call prediction options (one set per batch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictOptions {
    /// Answer zero-entity tweets with the training-split prior instead of
    /// abstaining. Off by default: the paper excludes those tweets, and
    /// silently imputing a region-level guess would distort accuracy
    /// metrics unless explicitly requested.
    pub fallback_prior: bool,
}

impl PredictOptions {
    /// Returns the options with the prior fallback switched on or off.
    pub fn with_fallback_prior(mut self, enabled: bool) -> Self {
        self.fallback_prior = enabled;
        self
    }
}

/// A successful prediction plus its provenance.
#[derive(Debug, Clone)]
pub struct PredictResponse {
    /// The mixture, point estimate and attention weights.
    pub prediction: Prediction,
    /// True when the answer is the training-split prior (the zero-entity
    /// fallback of [`PredictOptions::fallback_prior`]) rather than an
    /// entity-driven inference.
    pub from_fallback: bool,
}

/// A typed evaluation result (replaces the old
/// `(Vec<(Prediction, Point)>, f64)` tuple).
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// `(prediction, truth)` for every covered test tweet, in input order.
    pub pairs: Vec<(Prediction, Point)>,
    /// Covered fraction of the test split.
    pub coverage: f64,
    /// Tweets the predictor abstained on (no known entity).
    pub abstained: usize,
}

impl EvalOutcome {
    /// The point-estimate pairs (prediction mode, truth).
    pub fn point_pairs(&self) -> Vec<(Point, Point)> {
        self.pairs.iter().map(|(p, t)| (p.point, *t)).collect()
    }

    /// The paper's distance metrics over the covered pairs; `None` when
    /// nothing was covered.
    pub fn report(&self) -> Option<DistanceReport> {
        DistanceReport::from_pairs_with_coverage(&self.point_pairs(), self.coverage)
    }
}

/// A tweet geolocation model behind the unified request/response API.
///
/// `locate_batch` is the primitive — implementations fan it out across the
/// `edge-par` pool and the serving layer batches requests into it — and
/// `locate` / `evaluate` are provided delegates.
pub trait Predictor: Sync {
    /// Method name as it appears in the paper's tables.
    fn name(&self) -> &str;

    /// Predicts a batch. The output is in input order, one entry per
    /// request; an uncovered request yields `Err(PredictError::NoEntities)`
    /// at its position (unless `opts.fallback_prior` answers it with the
    /// prior).
    fn locate_batch(
        &self,
        requests: &[PredictRequest],
        opts: &PredictOptions,
    ) -> Vec<Result<PredictResponse, PredictError>>;

    /// Predicts a single request (delegates to [`Predictor::locate_batch`]).
    fn locate(
        &self,
        request: &PredictRequest,
        opts: &PredictOptions,
    ) -> Result<PredictResponse, PredictError> {
        self.locate_batch(std::slice::from_ref(request), opts)
            .pop()
            .expect("locate_batch returned no result for a one-request batch")
    }

    /// Evaluates on a test split: covered `(prediction, truth)` pairs in
    /// input order, the coverage fraction, and the abstention count.
    fn evaluate(&self, test: &[Tweet], opts: &PredictOptions) -> EvalOutcome {
        let _span = edge_obs::span("evaluate");
        let requests: Vec<PredictRequest> =
            test.iter().map(|t| PredictRequest::text(t.text.as_str())).collect();
        let mut pairs = Vec::new();
        let mut abstained = 0usize;
        for (result, tweet) in self.locate_batch(&requests, opts).into_iter().zip(test) {
            match result {
                Ok(r) => pairs.push((r.prediction, tweet.location)),
                Err(_) => abstained += 1,
            }
        }
        let coverage = pairs.len() as f64 / test.len().max(1) as f64;
        // Uncovered tweets are exactly those whose entity resolution came up
        // empty, so the NER miss rate is the complement of coverage.
        edge_obs::gauge!("core.ner.miss_rate").set(1.0 - coverage);
        EvalOutcome { pairs, coverage, abstained }
    }
}

/// A typed point-estimate evaluation (the [`Geolocator`] counterpart of
/// [`EvalOutcome`]).
#[derive(Debug, Clone)]
pub struct PointEval {
    /// `(predicted point, truth)` for every covered test tweet.
    pub pairs: Vec<(Point, Point)>,
    /// Covered fraction of the test split.
    pub coverage: f64,
    /// Tweets the method abstained on.
    pub abstained: usize,
}

impl PointEval {
    /// The paper's distance metrics over the covered pairs; `None` when
    /// nothing was covered.
    pub fn report(&self) -> Option<DistanceReport> {
        DistanceReport::from_pairs_with_coverage(&self.pairs, self.coverage)
    }
}

/// A tweet geolocation method producing a single point estimate (the common
/// denominator of Table III). The baselines implement this directly; every
/// [`Predictor`] (EDGE, BOW) gets it through the blanket implementation, so
/// the bench harness scores all methods through one interface.
pub trait Geolocator {
    /// Method name as it appears in the paper's tables.
    fn name(&self) -> &str;

    /// The predicted location, or `None` when the method abstains
    /// (Hyper-local abstains on tweets without geo-specific n-grams).
    fn predict_point(&self, text: &str) -> Option<Point>;

    /// Evaluates on a test split.
    fn evaluate_points(&self, test: &[Tweet]) -> PointEval {
        let mut pairs = Vec::new();
        let mut abstained = 0usize;
        for t in test {
            match self.predict_point(&t.text) {
                Some(p) => pairs.push((p, t.location)),
                None => abstained += 1,
            }
        }
        let coverage = pairs.len() as f64 / test.len().max(1) as f64;
        PointEval { pairs, coverage, abstained }
    }
}

/// Every [`Predictor`] is a [`Geolocator`]: the point estimate is the
/// mixture mode, and abstentions map to `None`. Evaluated with default
/// options (no prior fallback), matching the paper's protocol.
impl<P: Predictor> Geolocator for P {
    fn name(&self) -> &str {
        Predictor::name(self)
    }

    fn predict_point(&self, text: &str) -> Option<Point> {
        self.locate(&PredictRequest::text(text), &PredictOptions::default())
            .ok()
            .map(|r| r.prediction.point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_data::SimDate;
    use edge_geo::{BivariateGaussian, GaussianMixture};

    fn tweets(n: usize) -> Vec<Tweet> {
        (0..n)
            .map(|i| Tweet {
                id: i as u64,
                text: "x".into(),
                location: Point::new(40.0, -74.0),
                date: SimDate::new(2020, 3, 12),
                gold_entities: vec![],
            })
            .collect()
    }

    struct FixedGeo(Option<Point>);
    impl Geolocator for FixedGeo {
        fn name(&self) -> &str {
            "fixed"
        }
        fn predict_point(&self, _text: &str) -> Option<Point> {
            self.0
        }
    }

    #[test]
    fn evaluate_points_full_coverage() {
        let g = FixedGeo(Some(Point::new(40.5, -74.0)));
        let out = g.evaluate_points(&tweets(4));
        assert_eq!(out.pairs.len(), 4);
        assert_eq!(out.coverage, 1.0);
        assert_eq!(out.abstained, 0);
        assert!(out.report().is_some());
    }

    #[test]
    fn evaluate_points_abstaining_method() {
        let g = FixedGeo(None);
        let out = g.evaluate_points(&tweets(4));
        assert!(out.pairs.is_empty());
        assert_eq!(out.coverage, 0.0);
        assert_eq!(out.abstained, 4);
        assert!(out.report().is_none());
    }

    #[test]
    fn evaluate_points_empty_test_set() {
        let g = FixedGeo(Some(Point::new(0.0, 0.0)));
        let out = g.evaluate_points(&[]);
        assert!(out.pairs.is_empty());
        assert_eq!(out.coverage, 0.0);
    }

    /// A predictor that covers even-length texts only — exercises the
    /// provided `locate` / `evaluate` delegates and the blanket
    /// `Geolocator`.
    struct EvenLength;

    fn point_prediction(p: Point) -> Prediction {
        let g = BivariateGaussian { mu: p, sigma_lat: 0.1, sigma_lon: 0.1, rho: 0.0 };
        Prediction { mixture: GaussianMixture::single(g), point: p, attention: Vec::new() }
    }

    impl Predictor for EvenLength {
        fn name(&self) -> &str {
            "even"
        }
        fn locate_batch(
            &self,
            requests: &[PredictRequest],
            opts: &PredictOptions,
        ) -> Vec<Result<PredictResponse, PredictError>> {
            requests
                .iter()
                .map(|r| match &r.input {
                    PredictInput::Text(t) if t.len() % 2 == 0 => Ok(PredictResponse {
                        prediction: point_prediction(Point::new(1.0, 2.0)),
                        from_fallback: false,
                    }),
                    PredictInput::Text(_) if opts.fallback_prior => Ok(PredictResponse {
                        prediction: point_prediction(Point::new(0.0, 0.0)),
                        from_fallback: true,
                    }),
                    _ => Err(PredictError::NoEntities),
                })
                .collect()
        }
    }

    #[test]
    fn locate_delegates_to_batch() {
        let p = EvenLength;
        let opts = PredictOptions::default();
        assert!(p.locate(&PredictRequest::text("ab"), &opts).is_ok());
        assert_eq!(
            p.locate(&PredictRequest::text("abc"), &opts).unwrap_err(),
            PredictError::NoEntities
        );
        let fallback =
            p.locate(&PredictRequest::text("abc"), &opts.with_fallback_prior(true)).unwrap();
        assert!(fallback.from_fallback);
    }

    #[test]
    fn evaluate_counts_abstentions() {
        let p = EvenLength;
        let mut ts = tweets(4);
        ts[0].text = "ab".into(); // even -> covered
        ts[1].text = "odd".into(); // length 3 -> abstains
        ts[2].text = "abcd".into(); // even -> covered
        ts[3].text = "abcde".into(); // length 5 -> abstains
        let out = p.evaluate(&ts, &PredictOptions::default());
        assert_eq!(out.pairs.len(), 2);
        assert_eq!(out.abstained, 2);
        assert!((out.coverage - 0.5).abs() < 1e-12);
    }

    #[test]
    fn blanket_geolocator_maps_abstention_to_none() {
        let p = EvenLength;
        assert_eq!(Geolocator::predict_point(&p, "ab"), Some(Point::new(1.0, 2.0)));
        assert_eq!(Geolocator::predict_point(&p, "abc"), None);
        assert_eq!(Geolocator::name(&p), "even");
        // The fixture text "x" has odd length, so the blanket facade
        // reports a full abstention.
        let out = p.evaluate_points(&tweets(2));
        assert_eq!(out.abstained, 2);
    }

    #[test]
    fn request_constructors() {
        let r = PredictRequest::from("hi");
        assert_eq!(r.input, PredictInput::Text("hi".into()));
        let r = PredictRequest::entities(vec![3, 1]);
        assert_eq!(r.input, PredictInput::Entities(vec![3, 1]));
    }
}
