package obs

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/asciichart"
)

// This file is the terminal face of the telemetry plane: RenderDashboard
// turns the latest published Frame (plus the Live history ring) into a
// fixed-layout text dashboard — queue/rank sparklines, latency quantile
// tiles, a per-OST read-latency heat strip, the memo tile, and SLO status.
// The CLIs redraw it on a wall-clock ticker while the simulation runs; the
// renderer itself only reads immutable snapshots, so it is race-free by
// construction.

// dashWidth is the sparkline / heat strip width.
const dashWidth = 48

// RenderDashboard renders the latest frame of l as a multi-line dashboard.
// Returns a "waiting for first frame" placeholder before the first publish.
func RenderDashboard(l *Live) string {
	f := l.Latest()
	if f == nil {
		return "telemetry: waiting for first frame...\n"
	}
	qd, rb := l.History()

	var b strings.Builder
	fmt.Fprintf(&b, "── telemetry ── frame %d ── t=%.3fs (virtual) ──\n", f.Seq, f.Now)

	var queued, running, done, dropped, other int
	for _, j := range f.Jobs {
		switch j.State {
		case "queued":
			queued++
		case "running":
			running++
		case "done", "memo-hit", "coalesced":
			done++
		case "dropped":
			dropped++
		default:
			other++
		}
	}
	fmt.Fprintf(&b, "jobs  queued %d  running %d  done %d  dropped %d", queued, running, done, dropped)
	if other > 0 {
		fmt.Fprintf(&b, "  error %d", other)
	}
	fmt.Fprintf(&b, "    ranks %d/%d busy\n", f.RanksBusy, f.RanksTotal)

	fmt.Fprintf(&b, "queue depth %s %d\n", asciichart.Spark(qd, dashWidth), f.QueueDepth)
	fmt.Fprintf(&b, "ranks busy  %s %d\n", asciichart.Spark(rb, dashWidth), f.RanksBusy)

	b.WriteString(quantileLine(f.Reg, "queue wait ", "cluster_queue_wait_seconds"))
	b.WriteString(quantileLine(f.Reg, "pfs read   ", "pfs_read_seconds"))

	if len(f.OSTReadLat) > 0 {
		var worst float64
		for _, v := range f.OSTReadLat {
			worst = math.Max(worst, v)
		}
		fmt.Fprintf(&b, "ost read lat %s  %d osts, worst mean %s\n",
			asciichart.Heat(f.OSTReadLat, dashWidth), len(f.OSTReadLat), fdur(worst))
	}

	if hits, ok := f.Reg.GaugeVecValue("memo_events", "hits"); ok {
		misses, _ := f.Reg.GaugeVecValue("memo_events", "misses")
		coal, _ := f.Reg.GaugeVecValue("memo_events", "coalesced")
		saved, _ := f.Reg.GaugeVecValue("memo_events", "bytes_saved")
		total := hits + misses
		rate := 0.0
		if total > 0 {
			rate = hits / total
		}
		fmt.Fprintf(&b, "memo  hits %.0f  misses %.0f  coalesced %.0f  hit-rate %.1f%%  saved %s\n",
			hits, misses, coal, rate*100, fbytes(saved))
	}

	for _, st := range f.SLO {
		mark := "ok  "
		switch {
		case !st.OK:
			mark = "FAIL"
		case !st.Valid:
			mark = "n/a "
		}
		fmt.Fprintf(&b, "slo  [%s] %-20s %s", mark, st.Name, st.Expr)
		if st.Valid || !st.OK {
			fmt.Fprintf(&b, "  (value %.4g)", st.Value)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// quantileLine renders one "name  p50 ...  p99 ..." tile, or nothing when
// the histogram has no observations yet.
func quantileLine(reg *Registry, label, hist string) string {
	h := reg.FindHistogram(hist)
	if h.Count() == 0 {
		return ""
	}
	return fmt.Sprintf("%s p50 %s  p99 %s  (n=%d, mean %s)\n",
		label, fdur(h.Quantile(0.50)), fdur(h.Quantile(0.99)), h.Count(), fdur(h.Mean()))
}

// fdur formats a virtual-seconds duration compactly.
func fdur(sec float64) string {
	switch {
	case math.IsNaN(sec):
		return "n/a"
	case sec >= 1:
		return fmt.Sprintf("%.2fs", sec)
	case sec >= 1e-3:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.0fus", sec*1e6)
	}
}

// fbytes formats a byte count compactly.
func fbytes(n float64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", n/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", n/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", n/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", n)
	}
}
