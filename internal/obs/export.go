package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"

	"repro/internal/jsonl"
)

// WriteChromeTrace exports the span store as Chrome trace-event JSON (the
// format Perfetto and chrome://tracing load): process/thread metadata first
// (sorted), then every span as a complete "X" event in creation order, then
// counter samples as "C" events. Timestamps and durations are microseconds
// of virtual time with fixed 3-decimal formatting, so the same run produces
// byte-identical output.
//
// Layout: pid 0 is the cluster scheduler (one tid per job showing its
// queued/run intervals, plus counter tracks); pid j+1 is job j with one tid
// per world rank showing cc/adio/pfs/mpi detail.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	var lit []byte
	str := func(s string) {
		lit = jsonl.AppendString(lit[:0], s)
		bw.Write(lit)
	}
	first := true
	sep := func() {
		if first {
			first = false
			bw.WriteString("\n")
		} else {
			bw.WriteString(",\n")
		}
	}
	if t != nil {
		pids := make([]int, 0, len(t.procs))
		for pid := range t.procs {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		for _, pid := range pids {
			sep()
			bw.WriteString("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":")
			bw.WriteString(strconv.Itoa(pid))
			bw.WriteString(",\"tid\":0,\"args\":{\"name\":")
			str(t.procs[pid])
			bw.WriteString("}}")
		}
		tkeys := make([]threadKey, 0, len(t.threads))
		for k := range t.threads {
			tkeys = append(tkeys, k)
		}
		sort.Slice(tkeys, func(i, j int) bool {
			if tkeys[i].pid != tkeys[j].pid {
				return tkeys[i].pid < tkeys[j].pid
			}
			return tkeys[i].tid < tkeys[j].tid
		})
		for _, k := range tkeys {
			sep()
			bw.WriteString("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":")
			bw.WriteString(strconv.Itoa(k.pid))
			bw.WriteString(",\"tid\":")
			bw.WriteString(strconv.Itoa(k.tid))
			bw.WriteString(",\"args\":{\"name\":")
			str(t.threads[k])
			bw.WriteString("}}")
		}
		for i := range t.spans {
			sp := &t.spans[i]
			dur := sp.end - sp.start
			if dur < 0 {
				dur = 0 // never-closed span
			}
			sep()
			bw.WriteString("{\"ph\":\"X\",\"name\":")
			str(sp.name)
			bw.WriteString(",\"cat\":")
			str(sp.cat)
			bw.WriteString(",\"pid\":")
			bw.WriteString(strconv.Itoa(sp.pid))
			bw.WriteString(",\"tid\":")
			bw.WriteString(strconv.Itoa(sp.tid))
			bw.WriteString(",\"ts\":")
			bw.WriteString(usec(sp.start))
			bw.WriteString(",\"dur\":")
			bw.WriteString(usec(dur))
			if len(sp.attrs) > 0 {
				bw.WriteString(",\"args\":{")
				for j, a := range sp.attrs {
					if j > 0 {
						bw.WriteString(",")
					}
					str(a.Key)
					bw.WriteString(":")
					str(a.Val)
				}
				bw.WriteString("}")
			}
			bw.WriteString("}")
		}
		for _, cs := range t.samples {
			sep()
			bw.WriteString("{\"ph\":\"C\",\"name\":")
			str(cs.name)
			bw.WriteString(",\"pid\":0,\"tid\":0,\"ts\":")
			bw.WriteString(usec(cs.ts))
			bw.WriteString(",\"args\":{\"value\":")
			bw.WriteString(strconv.FormatFloat(cs.val, 'g', -1, 64))
			bw.WriteString("}}")
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// usec renders virtual seconds as microseconds with fixed 3-decimal
// precision (nanosecond resolution) — the deterministic timestamp format.
func usec(sec float64) string {
	return strconv.FormatFloat(sec*1e6, 'f', 3, 64)
}
