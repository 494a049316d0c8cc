package obs

import (
	"bufio"
	"io"
	"strconv"
)

// WriteOpenMetrics renders the registry in the Prometheus text exposition
// format (the dialect every Prometheus scraper and the OpenMetrics parser in
// github.com/prometheus/common/expfmt accept): one `# TYPE` line per family,
// counters and gauges as single samples, histograms as cumulative
// `_bucket{le="..."}` series plus `_sum` and `_count`. Families are sorted
// by name within each kind, values use shortest round-trip float formatting,
// and no wall-clock timestamps are emitted, so rendering the same snapshot
// twice produces identical bytes.
//
// Registry values live on the virtual clock; the /metrics endpoint (live.go)
// serves snapshots taken at scheduler round boundaries so a scrape never
// sees a half-updated round.
//
// Labeled families (vec.go) render with real labels: one `# TYPE` line per
// family, then one sample per series with its canonical sorted `k="v"` pairs
// (histogram buckets put `le` last). Plain and labeled families share one
// sorted namespace per kind.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if r != nil {
		r.eachSeries(func(kind, name string) {
			bw.WriteString("# TYPE " + name + " " + kind + "\n")
		}, func(_, name, labels string, m any) {
			switch m := m.(type) {
			case *Histogram:
				writeOMHist(bw, name, labels, m)
			case scalar:
				if labels != "" {
					name += "{" + labels + "}"
				}
				bw.WriteString(name + " " + fnum(m.Value()) + "\n")
			}
		})
	}
	return bw.Flush()
}

// writeOMHist renders one histogram series: cumulative buckets, _sum, and
// _count. labels is the pre-rendered `k="v",...` pair list ("" for a plain
// histogram); `le` is appended after it so every bucket line stays valid
// exposition text.
func writeOMHist(bw *bufio.Writer, name, labels string, h *Histogram) {
	pre := name + "_bucket{"
	if labels != "" {
		pre += labels + ","
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		bw.WriteString(pre + `le="` + fnum(bound) + `"} ` +
			strconv.FormatInt(cum, 10) + "\n")
	}
	cum += h.counts[len(h.bounds)]
	bw.WriteString(pre + `le="+Inf"} ` + strconv.FormatInt(cum, 10) + "\n")
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	bw.WriteString(name + "_sum" + suffix + " " + fnum(h.sum) + "\n")
	bw.WriteString(name + "_count" + suffix + " " + strconv.FormatInt(h.n, 10) + "\n")
}
