package obs

import (
	"fmt"
	"math"
)

// Kind classifies an interval of a rank's virtual time. The kinds map onto
// the CPU-accounting categories of the paper's Figures 2-3: Compute ≈ user%,
// Sys ≈ sys% (issuing I/O, packing, injecting messages), WaitIO/WaitComm ≈
// wait%.
type Kind uint8

const (
	// Compute is application computation (the map/reduce work itself).
	Compute Kind = iota
	// Sys is kernel-ish CPU work: issuing I/O requests, memory copies,
	// packing/unpacking buffers, message injection overhead.
	Sys
	// WaitIO is time blocked waiting for storage.
	WaitIO
	// WaitComm is time blocked waiting for messages.
	WaitComm
	numKinds
)

// NumKinds is the number of interval kinds.
const NumKinds = int(numKinds)

// RankTime is where each rank's virtual time goes: the one receiver of the
// classified intervals mpi and pfs report. Per-(rank, kind) totals are always
// kept; the bucketed series behind CPUProfile only once Profile asked for it,
// so an unprofiled run allocates nothing per interval. A nil *RankTime
// discards. The simulation kernel serializes rank execution, so no locking is
// needed.
type RankTime struct {
	nranks int
	totals []float64 // [rank*NumKinds + kind]
	bucket float64   // 0 = no series kept
	series map[int64]*[NumKinds]float64
}

// NewRankTime creates the accumulator for n ranks.
func NewRankTime(n int) *RankTime {
	return &RankTime{nranks: n, totals: make([]float64, n*NumKinds)}
}

// Profile starts keeping the per-bucket series CPUProfile renders, at the
// given bucket width in virtual seconds. Call it before the run.
func (rt *RankTime) Profile(bucket float64) {
	if bucket <= 0 {
		bucket = 1
	}
	rt.bucket = bucket
	rt.series = make(map[int64]*[NumKinds]float64)
}

// Record accounts [t0, t1) of rank's time to kind. Zero-length and
// out-of-order intervals are tolerated (ranks progress independently).
// Intervals starting before t=0 are clamped to the profiled window: without
// the clamp a negative t0 truncates toward zero in the bucket computation and
// the pre-zero portion lands in bucket 0.
func (rt *RankTime) Record(rank int, kind Kind, t0, t1 float64) {
	if rt == nil || rank < 0 || rank >= rt.nranks {
		return
	}
	if t0 < 0 {
		t0 = 0
	}
	if t1 <= t0 {
		return
	}
	rt.totals[rank*NumKinds+int(kind)] += t1 - t0
	if rt.bucket > 0 {
		rt.spread(kind, t0, t1)
	}
}

// spread adds the interval to each bucket it overlaps.
func (rt *RankTime) spread(kind Kind, t0, t1 float64) {
	b0 := int64(t0 / rt.bucket)
	for b := b0; ; b++ {
		lo := float64(b) * rt.bucket
		hi := lo + rt.bucket
		s := math.Max(t0, lo)
		e := math.Min(t1, hi)
		if e > s {
			acc := rt.series[b]
			if acc == nil {
				acc = new([NumKinds]float64)
				rt.series[b] = acc
			}
			acc[kind] += e - s
		}
		if hi >= t1 {
			break
		}
	}
}

// Total returns the summed time of a kind across all ranks, in rank order.
func (rt *RankTime) Total(kind Kind) float64 {
	var s float64
	for r := 0; r < rt.nranks; r++ {
		s += rt.totals[r*NumKinds+int(kind)]
	}
	return s
}

// RankTotal returns one rank's total for a kind.
func (rt *RankTime) RankTotal(rank int, kind Kind) float64 {
	return rt.totals[rank*NumKinds+int(kind)]
}

// CPUSample is one bucket of the cluster-wide CPU profile: percentages of
// total core time in user (compute), sys, and wait, as an OS monitor would
// have reported them. Message waits count as user time — MPICH busy-polls,
// so a rank blocked in MPI burns user CPU on a real node — while storage
// waits and unattributed time count as wait.
type CPUSample struct {
	T                  float64 // bucket start time
	User, SysPct, Wait float64 // percent of n*bucket core-seconds
}

// CPUProfile renders the bucketed user/sys/wait percentages from time 0 to
// `until` (typically env.Now() at the end of the run). It is nil unless
// Profile was called before the run.
func (rt *RankTime) CPUProfile(until float64) []CPUSample {
	if until <= 0 || rt.bucket <= 0 {
		return nil
	}
	nb := int64(math.Ceil(until / rt.bucket))
	out := make([]CPUSample, 0, nb)
	denom := float64(rt.nranks) * rt.bucket
	for b := int64(0); b < nb; b++ {
		s := CPUSample{T: float64(b) * rt.bucket}
		if acc := rt.series[b]; acc != nil {
			user := acc[Compute] + acc[WaitComm]
			sys := acc[Sys]
			wait := acc[WaitIO]
			// Clamp the final, partial bucket's denominator.
			d := denom
			if rem := until - s.T; rem < rt.bucket {
				d = float64(rt.nranks) * rem
			}
			unattributed := d - user - sys - wait
			if unattributed > 0 {
				wait += unattributed
			}
			s.User = 100 * user / d
			s.SysPct = 100 * sys / d
			s.Wait = 100 * wait / d
		} else {
			s.Wait = 100
		}
		out = append(out, s)
	}
	return out
}

// Summary is a compact human-readable report of the totals.
func (rt *RankTime) Summary() string {
	return fmt.Sprintf("user %.2fs sys %.2fs wait-io %.2fs wait-comm %.2fs",
		rt.Total(Compute), rt.Total(Sys), rt.Total(WaitIO), rt.Total(WaitComm))
}
