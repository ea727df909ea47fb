package stats

import "math"

// Confidence-interval math for the multi-seed sweep framework: every figure
// point is an ensemble of independent trials (one per seed), reported as
// mean ± 95% confidence interval. Intervals are t-based (Student's t with
// n-1 degrees of freedom), the appropriate choice for the small ensembles
// (5-20 seeds) the experiment harness runs.

// Estimate is a mean with its uncertainty: the unit in which the sweep
// framework reports every metric.
type Estimate struct {
	N      int
	Mean   float64
	StdErr float64
	// Lo and Hi bound the 95% confidence interval for the mean. With one
	// sample the interval is undefined and collapses to the point estimate;
	// with zero samples the whole Estimate is zero.
	Lo float64
	Hi float64
}

// Margin returns the half-width of the confidence interval.
func (e Estimate) Margin() float64 { return (e.Hi - e.Lo) / 2 }

// SampleVariance returns the unbiased (n-1) sample variance of xs, or 0
// when xs has fewer than two samples.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// SampleStdDev returns the sample standard deviation (n-1 denominator), or
// 0 when xs has fewer than two samples. Contrast StdDev, which is the
// population form used by the five-number summaries.
func SampleStdDev(xs []float64) float64 { return math.Sqrt(SampleVariance(xs)) }

// StdErr returns the standard error of the mean, SampleStdDev/sqrt(n), or 0
// when xs has fewer than two samples.
func StdErr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return SampleStdDev(xs) / math.Sqrt(float64(len(xs)))
}

// tCritical95 holds two-sided 95% Student-t critical values indexed by
// degrees of freedom 1..30. Beyond 30 the table continues at selected df
// and converges to the normal quantile 1.960.
var tCritical95 = [...]float64{
	0, // df 0 unused
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom (df <= 0 yields 0; large df approaches 1.960).
func TCritical95(df int) float64 {
	switch {
	case df <= 0:
		return 0
	case df < len(tCritical95):
		return tCritical95[df]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}

// MeanCI95 computes the mean of xs with its two-sided 95% t-based
// confidence interval. Edge cases: empty input yields the zero Estimate;
// a single sample yields a degenerate interval at the point estimate.
func MeanCI95(xs []float64) Estimate {
	n := len(xs)
	if n == 0 {
		return Estimate{}
	}
	m := Mean(xs)
	if n == 1 {
		return Estimate{N: 1, Mean: m, Lo: m, Hi: m}
	}
	se := StdErr(xs)
	margin := TCritical95(n-1) * se
	return Estimate{N: n, Mean: m, StdErr: se, Lo: m - margin, Hi: m + margin}
}
