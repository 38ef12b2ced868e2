package forecast

import "taxiqueue/internal/obs"

// metrics are the learner's registry collectors. Stats() reads these same
// collectors, so /metrics and the JSON stats view cannot disagree.
type metrics struct {
	appends  *obs.Counter
	observes *obs.Counter
	weight   *obs.Gauge

	qForecast *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		appends: reg.Counter("forecast_appends_total",
			"Append batches folded into the forecast profiles."),
		observes: reg.Counter("forecast_observes_total",
			"(spot, slot, day) observations folded into forecast profiles."),
		weight: reg.Gauge("forecast_weight",
			"Total effective observed-day weight across all profiles (floored)."),
		qForecast: reg.Histogram("forecast_query_seconds",
			"Forecast evaluation latency.", obs.DefBuckets),
	}
}
