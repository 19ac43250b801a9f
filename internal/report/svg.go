// Package report renders the reproduction results as a self-contained HTML
// page with inline SVG charts — bar charts for the model-comparison
// figures, line charts for the predicted-unit-count sweeps, and histogram
// panels for the signature-distribution figures — so a full paper-vs-
// measured report can be generated with no dependencies beyond the
// standard library.
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"lockstep/internal/stats"
)

// Chart geometry shared by all SVG renderings.
const (
	chartW   = 640
	chartH   = 300
	padL     = 70
	padR     = 20
	padT     = 36
	padB     = 58
	plotW    = chartW - padL - padR
	plotH    = chartH - padT - padB
	axisGrey = "#888"
	inkGrey  = "#333"
)

// palette is a small colour cycle for series and bars.
var palette = []string{"#4878a8", "#e49444", "#5bae7a", "#b05cc6", "#d1605e", "#857aab"}

type svgBuf struct{ strings.Builder }

func (b *svgBuf) open(w, h int) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif">`, w, h, w, h)
}

func (b *svgBuf) text(x, y float64, size int, anchor, fill, s string) {
	fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-size="%d" text-anchor="%s" fill="%s">%s</text>`,
		x, y, size, anchor, fill, escape(s))
}

func (b *svgBuf) line(x1, y1, x2, y2 float64, stroke string, width float64) {
	fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`,
		x1, y1, x2, y2, stroke, width)
}

func (b *svgBuf) rect(x, y, w, h float64, fill string) {
	fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`,
		x, y, w, h, fill)
}

func (b *svgBuf) close() { b.WriteString("</svg>") }

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// niceMax rounds a maximum up to a pleasant axis bound.
func niceMax(v float64) float64 {
	if v <= 0 {
		return 1
	}
	mag := math.Pow(10, math.Floor(math.Log10(v)))
	for _, m := range []float64{1, 2, 2.5, 5, 10} {
		if v <= m*mag {
			return m * mag
		}
	}
	return 10 * mag
}

func fmtTick(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gk", v/1e3)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// BarChart renders labelled vertical bars with value annotations — the
// shape of the paper's Figures 11 and 14.
func BarChart(title string, labels []string, values []float64, valueUnit string) string {
	var b svgBuf
	b.open(chartW, chartH)
	b.text(chartW/2, 18, 14, "middle", inkGrey, title)

	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	max = niceMax(max)

	// Axes and gridlines.
	b.line(padL, padT, padL, padT+plotH, axisGrey, 1)
	b.line(padL, padT+plotH, padL+plotW, padT+plotH, axisGrey, 1)
	for i := 0; i <= 4; i++ {
		v := max * float64(i) / 4
		y := float64(padT+plotH) - float64(plotH)*float64(i)/4
		b.line(padL, y, padL+plotW, y, "#e0e0e0", 0.5)
		b.text(padL-6, y+4, 10, "end", axisGrey, fmtTick(v))
	}

	n := len(values)
	if n == 0 {
		b.close()
		return b.String()
	}
	slot := float64(plotW) / float64(n)
	barW := slot * 0.62
	for i, v := range values {
		h := float64(plotH) * v / max
		x := float64(padL) + slot*float64(i) + (slot-barW)/2
		y := float64(padT+plotH) - h
		b.rect(x, y, barW, h, palette[i%len(palette)])
		b.text(x+barW/2, y-4, 10, "middle", inkGrey, fmtTick(v)+valueUnit)
		b.text(x+barW/2, float64(padT+plotH)+14, 10, "middle", inkGrey, trimLabel(labels[i]))
	}
	b.close()
	return b.String()
}

func trimLabel(s string) string {
	s = strings.TrimPrefix(s, "base-")
	s = strings.TrimPrefix(s, "pred-")
	return s
}

// LineChart renders one or more series over a shared integer x axis — the
// shape of the paper's Figures 12/13/15/16.
func LineChart(title string, xs []int, series map[string][]float64, yUnit string) string {
	var b svgBuf
	b.open(chartW, chartH)
	b.text(chartW/2, 18, 14, "middle", inkGrey, title)

	max := 0.0
	for _, ys := range series {
		for _, v := range ys {
			if v > max {
				max = v
			}
		}
	}
	max = niceMax(max)

	b.line(padL, padT, padL, padT+plotH, axisGrey, 1)
	b.line(padL, padT+plotH, padL+plotW, padT+plotH, axisGrey, 1)
	for i := 0; i <= 4; i++ {
		v := max * float64(i) / 4
		y := float64(padT+plotH) - float64(plotH)*float64(i)/4
		b.line(padL, y, padL+plotW, y, "#e0e0e0", 0.5)
		b.text(padL-6, y+4, 10, "end", axisGrey, fmtTick(v)+yUnit)
	}
	if len(xs) == 0 {
		b.close()
		return b.String()
	}
	xpos := func(i int) float64 {
		if len(xs) == 1 {
			return padL + plotW/2
		}
		return float64(padL) + float64(plotW)*float64(i)/float64(len(xs)-1)
	}
	for i, x := range xs {
		b.text(xpos(i), float64(padT+plotH)+14, 10, "middle", axisGrey, fmt.Sprintf("%d", x))
	}
	b.text(chartW/2, chartH-6, 11, "middle", axisGrey, "predicted units (K)")

	// Stable series order for deterministic output.
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	for si, name := range names {
		ys := series[name]
		color := palette[si%len(palette)]
		var path strings.Builder
		for i, v := range ys {
			y := float64(padT+plotH) - float64(plotH)*v/max
			if i == 0 {
				fmt.Fprintf(&path, "M%.1f %.1f", xpos(i), y)
			} else {
				fmt.Fprintf(&path, " L%.1f %.1f", xpos(i), y)
			}
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"/>`, xpos(i), y, color)
		}
		fmt.Fprintf(&b, `<path d="%s" stroke="%s" stroke-width="1.8" fill="none"/>`, path.String(), color)
		// Legend.
		lx := float64(padL) + 10
		ly := float64(padT) + 14*float64(si) + 6
		b.line(lx, ly, lx+18, ly, color, 2.5)
		b.text(lx+24, ly+4, 10, "start", inkGrey, name)
	}
	b.close()
	return b.String()
}

// Histogram renders a probability distribution head (top bars) — one panel
// of the paper's Figures 4/5.
func Histogram(title string, probs []float64, topN int) string {
	idx := stats.ArgsortDesc(probs)
	if len(idx) > topN {
		idx = idx[:topN]
	}
	labels := make([]string, len(idx))
	vals := make([]float64, len(idx))
	for i, id := range idx {
		labels[i] = fmt.Sprintf("s%d", id)
		vals[i] = probs[id] * 100
	}
	return BarChart(title, labels, vals, "%")
}
