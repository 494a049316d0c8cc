package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one host-time interval around a call into a layer of the program.
// Times are seconds since the recorder was created.
type span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Parent   int     `json:"parent"` // index of the enclosing span, -1 at the root
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
}

// recorder keeps the spans of a traced pass in memory; they are written out
// once, when the benchmark ends. The benchmark is one goroutine at a time
// (the DES kernel hands control from rank to rank), so spans nest and a
// stack names each span's parent. A nil recorder records nothing: that is
// "benchmark tracing off", the state every end-to-end metric is measured in.
type recorder struct {
	t0       time.Time
	spans    []span
	open     []int
	workload string
	rep      int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0).Seconds(),
		Parent: parent, Workload: r.workload, Rep: r.rep})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0).Seconds()
	for n := len(r.open); n > 0; n-- {
		if r.open[n-1] == id {
			r.open = append(r.open[:n-1], r.open[n:]...)
			break
		}
	}
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover, over the spans of one workload and rep.
func (r *recorder) selfTimes(workload string, rep int) map[string]float64 {
	self := make(map[string]float64)
	if r == nil {
		return self
	}
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		if s.Workload == workload && s.Rep == rep {
			self[s.Name] += s.End - s.Start - child[i]
		}
	}
	return self
}

func (r *recorder) writeFile(path string) error {
	b, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
