package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if l.Schema != ledgerSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, l.Schema, ledgerSchema)
	}
	return &l, nil
}

// verdict judges B against A on one end-to-end metric with its fixed bound.
//
//	same        B's value is no worse than A's by more than the bound (or
//	            is A's value exactly, as when a ledger meets itself)
//	worse       it is worse by more than the bound
//	unresolved  either side's quartile spread is wider than the bound, and
//	            B's samples are not all better than all of A's
//	moved       an exact (bound 0) metric changed for the better: a model
//	            change the PR must claim, not a regression
func verdict(d metricDef, a, b stat) string {
	sign := 1.0 // positive difference = worse
	if d.Better == "higher" {
		sign = -1
	}
	diff := sign * (b.Value - a.Value)
	if d.Bound == 0 {
		switch {
		case diff > 0:
			return "worse"
		case diff < 0:
			return "moved"
		}
		return "same"
	}
	if diff == 0 {
		return "same"
	}
	if !d.NoSpread && math.Max(a.spread(), b.spread()) > d.Bound {
		allBetter := len(a.Samples) > 0 && len(b.Samples) > 0
		for _, x := range a.Samples {
			for _, y := range b.Samples {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "same"
		}
		return "unresolved"
	}
	if diff > d.Bound*math.Abs(a.Value) {
		return "worse"
	}
	return "same"
}

// compareLedgers prints one row per workload and end-to-end metric of two
// runs of the benchmark and reports whether any row is worse.
func compareLedgers(aPath, bPath string, w io.Writer) (worse bool, err error) {
	a, err := readLedger(aPath)
	if err != nil {
		return false, err
	}
	b, err := readLedger(bPath)
	if err != nil {
		return false, err
	}
	if a.Env.Size != b.Env.Size || a.Env.Seed != b.Env.Seed {
		fmt.Fprintf(w, "note: inputs differ (size %s seed %d vs size %s seed %d); exact metrics are expected to differ\n",
			a.Env.Size, a.Env.Seed, b.Env.Size, b.Env.Seed)
	}
	bw := make(map[string]*workloadResult)
	for _, r := range b.Workloads {
		bw[r.Name] = r
	}
	fmt.Fprintf(w, "%-16s %-12s %-5s %12s %34s %12s %34s %10s %6s  %s\n",
		"workload", "metric", "unit", "A", "A [q1, median, q3] n", "B", "B [q1, median, q3] n", "B/A", "bound", "verdict")
	rows := 0
	for _, ra := range a.Workloads {
		rb := bw[ra.Name]
		if rb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, oka := ra.EndToEnd[d.Name]
			sb, okb := rb.EndToEnd[d.Name]
			if !oka || !okb {
				continue
			}
			ratio := "-"
			if sa.Value != 0 {
				ratio = fmt.Sprintf("%.4f", sb.Value/sa.Value)
			}
			v := verdict(d, sa, sb)
			worse = worse || v == "worse"
			rows++
			fmt.Fprintf(w, "%-16s %-12s %-5s %12.6g %34s %12.6g %34s %10s %5g%%  %s\n",
				ra.Name, d.Name, d.Unit,
				sa.Value, fmt.Sprintf("[%.5g, %.5g, %.5g] %d", sa.Q1, sa.Median, sa.Q3, sa.N),
				sb.Value, fmt.Sprintf("[%.5g, %.5g, %.5g] %d", sb.Q1, sb.Median, sb.Q3, sb.N),
				ratio, 100*d.Bound, v)
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-16s a run failed its correctness checks (A correct=%t, B correct=%t)\n", ra.Name, ra.Correct, rb.Correct)
			worse = true
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("the two ledgers share no workload with end-to-end metrics (were they written with -trace 1?)")
	}
	return worse, nil
}
