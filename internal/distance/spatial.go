package distance

import "math"

// EarthRadiusMeters is the mean Earth radius used by Haversine.
const EarthRadiusMeters = 6371000.0

// Haversine is the great-circle distance in meters between two
// (latitude, longitude) points in degrees; it scores the
// `at-same-location` / `with-distance(m)` connections of figure 3.
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	const rad = math.Pi / 180
	phi1, phi2 := lat1*rad, lat2*rad
	dPhi := (lat2 - lat1) * rad
	dLambda := (lon2 - lon1) * rad
	s1 := math.Sin(dPhi / 2)
	s2 := math.Sin(dLambda / 2)
	a := s1*s1 + math.Cos(phi1)*math.Cos(phi2)*s2*s2
	if a > 1 {
		a = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(a))
}
