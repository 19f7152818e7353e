package obs

import "strings"

// sparkRunes draws the sparkline's eight levels.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders vals as a fixed-width unicode sparkline scaled to the
// slice's maximum (the last `width` values are shown). All-zero input
// renders as baseline ticks.
func Sparkline(vals []float64, width int) string {
	if width <= 0 {
		return ""
	}
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 && v > 0 {
			i = int(v / max * float64(len(sparkRunes)-1))
			if i >= len(sparkRunes) {
				i = len(sparkRunes) - 1
			}
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// Bar renders frac (0..1, clamped) as a fixed-width block bar.
func Bar(frac float64, width int) string {
	if width <= 0 {
		return ""
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	full := int(frac*float64(width) + 0.5)
	return strings.Repeat("█", full) + strings.Repeat("░", width-full)
}
