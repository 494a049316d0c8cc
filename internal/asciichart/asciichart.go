// Package asciichart renders small line and bar charts as text, so the
// experiment CLI can draw the paper's figures — not just tabulate them — in
// a terminal. No dependencies, deterministic output.
package asciichart

import (
	"fmt"
	"math"
	"strings"
)

// Series is one line of a line chart.
type Series struct {
	Name   string
	Points []float64 // y values, x is the index
	Glyph  rune      // marker; 0 picks a default per series order
}

var defaultGlyphs = []rune{'*', '+', 'o', 'x', '#'}

// Line renders series as a width x height character plot with a y-axis
// scale, an x-axis, and a legend. Series are drawn in order; later series
// overdraw earlier ones where they collide.
func Line(series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	maxLen := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s.Points) > maxLen {
			maxLen = len(s.Points)
		}
		for _, v := range s.Points {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if maxLen == 0 {
		return "(no data)\n"
	}
	if lo == hi {
		lo, hi = lo-1, hi+1
	}
	grid := make([][]rune, height)
	for y := range grid {
		grid[y] = []rune(strings.Repeat(" ", width))
	}
	xOf := func(i int) int {
		if maxLen == 1 {
			return 0
		}
		return i * (width - 1) / (maxLen - 1)
	}
	yOf := func(v float64) int {
		f := (v - lo) / (hi - lo)
		row := int(math.Round(float64(height-1) * (1 - f)))
		if row < 0 {
			row = 0
		}
		if row >= height {
			row = height - 1
		}
		return row
	}
	for si, s := range series {
		g := s.Glyph
		if g == 0 {
			g = defaultGlyphs[si%len(defaultGlyphs)]
		}
		for i, v := range s.Points {
			grid[yOf(v)][xOf(i)] = g
		}
	}
	var b strings.Builder
	for y := 0; y < height; y++ {
		var label string
		switch y {
		case 0:
			label = fmt.Sprintf("%8.3g", hi)
		case height - 1:
			label = fmt.Sprintf("%8.3g", lo)
		default:
			label = strings.Repeat(" ", 8)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(grid[y]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", width))
	var legend []string
	for si, s := range series {
		g := s.Glyph
		if g == 0 {
			g = defaultGlyphs[si%len(defaultGlyphs)]
		}
		legend = append(legend, fmt.Sprintf("%c %s", g, s.Name))
	}
	fmt.Fprintf(&b, "%s  x: 0..%d   %s\n", strings.Repeat(" ", 8), maxLen-1, strings.Join(legend, "   "))
	return b.String()
}

// blocks are the eight-level block glyphs Spark and Heat quantize into.
var blocks = []rune("▁▂▃▄▅▆▇█")

// Spark renders values as a one-line sparkline, the densest chart this
// package has: each value maps to one of eight block glyphs scaled between
// the series min and max. When the series is longer than width, it is
// downsampled by bucket maxima (peaks survive; a queue-depth series is read
// for its spikes, not its troughs). A flat series renders at the lowest level.
func Spark(values []float64, width int) string {
	if len(values) == 0 {
		return ""
	}
	if width < 1 {
		width = 1
	}
	if len(values) > width {
		down := make([]float64, width)
		for i := 0; i < width; i++ {
			lo := i * len(values) / width
			hi := (i + 1) * len(values) / width
			if hi <= lo {
				hi = lo + 1
			}
			m := values[lo]
			for _, v := range values[lo+1 : hi] {
				m = math.Max(m, v)
			}
			down[i] = m
		}
		values = down
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range values {
		level := 0
		if hi > lo {
			level = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
			if level < 0 {
				level = 0
			}
			if level >= len(blocks) {
				level = len(blocks) - 1
			}
		}
		b.WriteRune(blocks[level])
	}
	return b.String()
}

// Heat renders values as a one-line heat strip: like Spark, but scaled
// against zero (not the series min), so an all-equal hot row renders fully
// hot rather than fully cold — the reading a per-OST latency heatmap wants.
// Values are averaged (not peak-sampled) when downsampling: a heat strip
// shows load, not spikes.
func Heat(values []float64, width int) string {
	if len(values) == 0 {
		return ""
	}
	if width < 1 {
		width = 1
	}
	if len(values) > width {
		down := make([]float64, width)
		for i := 0; i < width; i++ {
			lo := i * len(values) / width
			hi := (i + 1) * len(values) / width
			if hi <= lo {
				hi = lo + 1
			}
			var sum float64
			for _, v := range values[lo:hi] {
				sum += v
			}
			down[i] = sum / float64(hi-lo)
		}
		values = down
	}
	var max float64
	for _, v := range values {
		max = math.Max(max, v)
	}
	var b strings.Builder
	for _, v := range values {
		level := 0
		if max > 0 && v > 0 {
			level = int(v / max * float64(len(blocks)-1))
			if level < 0 {
				level = 0
			}
			if level >= len(blocks) {
				level = len(blocks) - 1
			}
		}
		b.WriteRune(blocks[level])
	}
	return b.String()
}

// Bars renders a horizontal bar chart: one row per label, bars scaled to
// width characters, values printed at the bar ends.
func Bars(labels []string, values []float64, width int) string {
	if len(labels) != len(values) {
		return "(label/value mismatch)\n"
	}
	if len(values) == 0 {
		return "(no data)\n"
	}
	if width < 8 {
		width = 8
	}
	maxV := math.Inf(-1)
	labelW := 0
	for i, v := range values {
		maxV = math.Max(maxV, v)
		if len(labels[i]) > labelW {
			labelW = len(labels[i])
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	var b strings.Builder
	for i, v := range values {
		n := int(math.Round(float64(width) * v / maxV))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "%-*s |%s %.3g\n", labelW, labels[i], strings.Repeat("█", n), v)
	}
	return b.String()
}
