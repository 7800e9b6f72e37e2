package ratectl

import "repro/internal/sim"

// GradientEstimator filters per-group delay variations into a queuing
// delay offset in milliseconds — the signal the overuse detector compares
// against its adaptive threshold. Two implementations exist: the scalar
// Kalman filter of the original Google Congestion Control draft
// (KalmanEstimator) and the linear-regression trendline filter that
// replaced it in WebRTC (TrendlineEstimator). Both are allocation-free in
// steady state and must agree in sign on any consistent drift
// (TestEstimatorSignAgreement).
type GradientEstimator interface {
	// Update consumes one completed packet-group delta and returns the
	// new offset estimate in milliseconds.
	Update(d GroupDelta) float64
	// Offset reports the current estimate in milliseconds.
	Offset() float64
	// Reset rewinds the estimator to its just-built state.
	Reset()
}

// millis converts a simulated duration to float milliseconds.
func millis(d sim.Duration) float64 { return float64(d) / float64(sim.Millisecond) }

// KalmanEstimator is the draft-ietf-rmcat-gcc arrival-time filter reduced
// to its scalar form: the state m(i) tracks the one-way queuing delay
// offset per group, the process noise keeps the filter adaptive, and the
// measurement noise variance is estimated online from the residuals so
// bursty jitter widens the gain's denominator instead of swinging the
// estimate.
type KalmanEstimator struct {
	offset   float64 // m(i), ms
	errCov   float64 // e(i), ms²
	varNoise float64 // measurement noise variance estimate, ms²
	numDelta int
	scaled   float64 // detector signal: m(i) · min(numDelta, 60)
}

// Kalman filter tuning, from the GCC draft's reference values.
const (
	kalmanQ            = 1e-3 // process noise added per update, ms²
	kalmanInitialError = 0.1  // initial error covariance, ms²
	kalmanInitialNoise = 2.0  // initial measurement noise variance, ms²
	kalmanChi          = 0.02 // noise-variance EWMA weight
	kalmanMaxDeltas    = 60   // cap on the delta count scaling the offset
)

// NewKalmanEstimator returns a filter in its initial state.
func NewKalmanEstimator() *KalmanEstimator {
	k := &KalmanEstimator{}
	k.Reset()
	return k
}

// Reset rewinds to the just-built state.
func (k *KalmanEstimator) Reset() {
	*k = KalmanEstimator{errCov: kalmanInitialError, varNoise: kalmanInitialNoise}
}

// Offset reports the current detector signal in milliseconds.
func (k *KalmanEstimator) Offset() float64 { return k.scaled }

// RawOffset reports the unscaled per-group offset m(i) in milliseconds.
func (k *KalmanEstimator) RawOffset() float64 { return k.offset }

// Update runs one predict/correct step on the measured delay variation.
func (k *KalmanEstimator) Update(d GroupDelta) float64 {
	measured := millis(d.ArrivalDelta - d.SendDelta)
	k.numDelta++

	residual := measured - k.offset
	// Online residual variance: cap the residual's contribution so a
	// single outlier group cannot blow the gain open.
	capped := residual
	const residualCap = 15.0
	if capped > residualCap {
		capped = residualCap
	} else if capped < -residualCap {
		capped = -residualCap
	}
	k.varNoise = (1-kalmanChi)*k.varNoise + kalmanChi*capped*capped
	if k.varNoise < 1e-3 {
		k.varNoise = 1e-3
	}

	pred := k.errCov + kalmanQ
	gain := pred / (pred + k.varNoise)
	k.offset += gain * residual
	k.errCov = (1 - gain) * pred

	// Like WebRTC's overuse detector, the threshold comparison sees the
	// per-group offset scaled by the observation count: a small but
	// persistent gradient (a slow overrun adds ~1 ms per group) must still
	// cross a threshold that single-group serialization jitter cannot.
	deltas := k.numDelta
	if deltas > kalmanMaxDeltas {
		deltas = kalmanMaxDeltas
	}
	k.scaled = k.offset * float64(deltas)
	return k.scaled
}

// Trendline tuning, from the WebRTC trendline estimator.
const (
	trendlineWindow    = 20  // regression window in packet groups
	trendlineSmoothing = 0.9 // EWMA coefficient on the accumulated delay
	trendlineGain      = 4.0 // threshold gain applied to the raw slope
	trendlineMaxDeltas = 60  // cap on the delta count scaling the slope
)

// TrendlineEstimator fits a line through the recent accumulated-delay
// samples: the slope (ms of extra delay per ms of elapsed time) scaled by
// the observed group count and the threshold gain is the offset estimate.
// The window is a fixed-size ring, so steady-state updates allocate
// nothing.
type TrendlineEstimator struct {
	x, y  [trendlineWindow]float64 // arrival time (ms) / smoothed delay (ms)
	n     int                      // samples in the ring
	head  int                      // next write position
	accum float64                  // accumulated delay variation, ms
	sm    float64                  // smoothed accumulated delay, ms
	first sim.Time                 // arrival time origin
	prime bool
	count int // total deltas observed
	off   float64
}

// NewTrendlineEstimator returns a filter in its initial state.
func NewTrendlineEstimator() *TrendlineEstimator {
	t := &TrendlineEstimator{}
	t.Reset()
	return t
}

// Reset rewinds to the just-built state.
func (t *TrendlineEstimator) Reset() { *t = TrendlineEstimator{} }

// Offset reports the current estimate in milliseconds.
func (t *TrendlineEstimator) Offset() float64 { return t.off }

// Update appends one group sample and refits the trendline.
func (t *TrendlineEstimator) Update(d GroupDelta) float64 {
	measured := millis(d.ArrivalDelta - d.SendDelta)
	t.count++
	if !t.prime {
		t.prime = true
		t.first = d.Arrival
		t.sm = measured
	}
	t.accum += measured
	t.sm = trendlineSmoothing*t.sm + (1-trendlineSmoothing)*t.accum

	t.x[t.head] = millis(d.Arrival.Sub(t.first))
	t.y[t.head] = t.sm
	t.head = (t.head + 1) % trendlineWindow
	if t.n < trendlineWindow {
		t.n++
	}
	if t.n < 2 {
		t.off = 0
		return t.off
	}

	// Least-squares slope over the ring (order within the ring does not
	// matter for the fit).
	var sumX, sumY float64
	for i := 0; i < t.n; i++ {
		sumX += t.x[i]
		sumY += t.y[i]
	}
	meanX, meanY := sumX/float64(t.n), sumY/float64(t.n)
	var num, den float64
	for i := 0; i < t.n; i++ {
		num += (t.x[i] - meanX) * (t.y[i] - meanY)
		den += (t.x[i] - meanX) * (t.x[i] - meanX)
	}
	if den <= 0 {
		return t.off
	}
	slope := num / den
	deltas := t.count
	if deltas > trendlineMaxDeltas {
		deltas = trendlineMaxDeltas
	}
	// Like WebRTC's modified trend: the raw slope is dimensionless
	// (ms/ms), scaled by the observation count and gain to be comparable
	// against the detector's millisecond threshold.
	t.off = slope * float64(deltas) * trendlineGain
	return t.off
}
