//! WGS-84 points and distance computations.

use serde::{Deserialize, Serialize};

use crate::{EARTH_RADIUS_KM, KM_PER_DEG_LAT};

/// `√(hav θ)` from which [`Point::haversine_km`] and the batched kernel take
/// the half-angle through the antipode identity rather than `asin(√a)`.
/// `asin`'s slope 1/√(1−x²) is 1.7 here; the identity's own `asin` argument
/// is then at most 0.6, where the slope is 1.25.
pub(crate) const ANTIPODE_IDENTITY_FROM: f64 = 0.8;

/// A geographic point: latitude and longitude in decimal degrees.
///
/// Latitude is the first coordinate throughout this workspace, matching the
/// paper's convention that a mixture mean `μ` is "represented by latitude and
/// longitude" (Eq. 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl Point {
    /// Creates a point from latitude and longitude in degrees.
    pub const fn new(lat: f64, lon: f64) -> Self {
        Self { lat, lon }
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    ///
    /// `θ/2 = asin(√a)` with `a = hav θ`, except where `√a` reaches 0.8
    /// (beyond ~11,800 km): there `asin`'s slope would amplify the rounding
    /// of `a`, so the half-angle comes from the distance to `other`'s
    /// antipode instead, `θ/2 = π/2 − asin(√(1 − a))` with
    /// `1 − a = sin²((φ₁+φ₂)/2) + cos φ₁ cos φ₂ cos²(Δλ/2)` summed from
    /// non-negative terms, so nothing cancels.
    pub fn haversine_km(&self, other: &Point) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let coscos = lat1.cos() * lat2.cos();
        let a = (dlat / 2.0).sin().powi(2) + coscos * (dlon / 2.0).sin().powi(2);
        let root = a.sqrt().min(1.0);
        let half_angle = if root < ANTIPODE_IDENTITY_FROM {
            root.asin()
        } else {
            let to_antipode =
                ((lat1 + lat2) / 2.0).sin().powi(2) + coscos * (dlon / 2.0).cos().powi(2);
            std::f64::consts::FRAC_PI_2 - to_antipode.sqrt().min(1.0).asin()
        };
        2.0 * EARTH_RADIUS_KM * half_angle
    }

    /// Projects `self` into a local planar frame centred at `origin`,
    /// returning `(east_km, north_km)`.
    ///
    /// Accurate to well under 0.1% over metro-area extents (≤ ~100 km),
    /// which is the scale of every dataset in the paper.
    pub fn to_local_km(&self, origin: &Point) -> (f64, f64) {
        let east = (self.lon - origin.lon) * KM_PER_DEG_LAT * origin.lat.to_radians().cos();
        let north = (self.lat - origin.lat) * KM_PER_DEG_LAT;
        (east, north)
    }

    /// Inverse of [`Point::to_local_km`].
    pub fn from_local_km(origin: &Point, east: f64, north: f64) -> Self {
        let lat = origin.lat + north / KM_PER_DEG_LAT;
        let lon = origin.lon + east / (KM_PER_DEG_LAT * origin.lat.to_radians().cos());
        Self { lat, lon }
    }

    /// Linear interpolation between two points (degree space).
    pub fn lerp(&self, other: &Point, t: f64) -> Self {
        Self {
            lat: self.lat + (other.lat - self.lat) * t,
            lon: self.lon + (other.lon - self.lon) * t,
        }
    }

    /// Converts the point to a 3-D unit vector on the sphere, the
    /// representation the MvMF baseline works in.
    pub fn to_unit_vec(&self) -> [f64; 3] {
        let lat = self.lat.to_radians();
        let lon = self.lon.to_radians();
        [lat.cos() * lon.cos(), lat.cos() * lon.sin(), lat.sin()]
    }

    /// Converts a 3-D unit vector back to a point. The vector need not be
    /// perfectly normalized; it is renormalized internally.
    pub fn from_unit_vec(v: [f64; 3]) -> Self {
        let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        let (x, y, z) = (v[0] / norm, v[1] / norm, v[2] / norm);
        Self { lat: z.asin().to_degrees(), lon: y.atan2(x).to_degrees() }
    }

    /// True when both coordinates are finite.
    pub fn is_finite(&self) -> bool {
        self.lat.is_finite() && self.lon.is_finite()
    }
}

/// The centroid of a non-empty slice of points (degree-space mean).
///
/// Returns `None` for an empty slice.
pub fn centroid(points: &[Point]) -> Option<Point> {
    if points.is_empty() {
        return None;
    }
    let n = points.len() as f64;
    let (mut lat, mut lon) = (0.0, 0.0);
    for p in points {
        lat += p.lat;
        lon += p.lon;
    }
    Some(Point::new(lat / n, lon / n))
}

#[cfg(test)]
mod tests {
    use super::*;

    const NYC: Point = Point::new(40.7128, -74.0060);
    const LA: Point = Point::new(34.0522, -118.2437);

    #[test]
    fn haversine_zero_for_identical_points() {
        assert_eq!(NYC.haversine_km(&NYC), 0.0);
    }

    #[test]
    fn haversine_is_symmetric() {
        assert!((NYC.haversine_km(&LA) - LA.haversine_km(&NYC)).abs() < 1e-9);
    }

    #[test]
    fn haversine_nyc_la_matches_known_distance() {
        // Known great-circle distance NYC <-> LA is ~3936 km.
        let d = NYC.haversine_km(&LA);
        assert!((d - 3936.0).abs() < 10.0, "got {d}");
    }

    #[test]
    fn haversine_one_degree_latitude() {
        let a = Point::new(40.0, -74.0);
        let b = Point::new(41.0, -74.0);
        let d = a.haversine_km(&b);
        assert!((d - KM_PER_DEG_LAT).abs() < 0.05, "got {d}");
    }

    #[test]
    fn local_projection_round_trips() {
        let p = Point::new(40.75, -73.98);
        let (e, n) = p.to_local_km(&NYC);
        let back = Point::from_local_km(&NYC, e, n);
        assert!((back.lat - p.lat).abs() < 1e-10);
        assert!((back.lon - p.lon).abs() < 1e-10);
    }

    #[test]
    fn local_projection_distance_agrees_with_haversine() {
        let p = Point::new(40.85, -73.90);
        let (e, n) = p.to_local_km(&NYC);
        let planar = (e * e + n * n).sqrt();
        let sphere = p.haversine_km(&NYC);
        assert!((planar - sphere).abs() / sphere < 5e-3, "planar {planar} vs haversine {sphere}");
    }

    #[test]
    fn unit_vec_round_trips() {
        for p in [NYC, LA, Point::new(-33.86, 151.21), Point::new(0.0, 0.0)] {
            let back = Point::from_unit_vec(p.to_unit_vec());
            assert!((back.lat - p.lat).abs() < 1e-9, "{p:?} -> {back:?}");
            assert!((back.lon - p.lon).abs() < 1e-9, "{p:?} -> {back:?}");
        }
    }

    #[test]
    fn unit_vec_is_normalized() {
        let v = NYC.to_unit_vec();
        let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let mid = NYC.lerp(&LA, 0.5);
        assert_eq!(NYC.lerp(&LA, 0.0), NYC);
        assert_eq!(NYC.lerp(&LA, 1.0), LA);
        assert!((mid.lat - (NYC.lat + LA.lat) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_empty_is_none() {
        assert!(centroid(&[]).is_none());
    }

    #[test]
    fn centroid_of_single_point_is_itself() {
        assert_eq!(centroid(&[NYC]), Some(NYC));
    }

    #[test]
    fn centroid_averages() {
        let c = centroid(&[Point::new(0.0, 0.0), Point::new(2.0, 4.0)]).unwrap();
        assert_eq!(c, Point::new(1.0, 2.0));
    }
}
