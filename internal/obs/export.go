package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

var inf = math.Inf(1)

// MarshalJSON renders the bucket bound as a string ("+Inf" for the
// overflow bucket) because JSON has no encoding for infinities — matching
// Prometheus, where le is a label string anyway.
func (b Bucket) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, formatFloat(b.LE), b.Count)), nil
}

// WriteJSON encodes the snapshot as indented JSON. The encoding is
// deterministic: metrics arrive sorted from Snapshot and every struct
// field marshals in declaration order.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus encodes the snapshot in the Prometheus text exposition
// format (version 0.0.4). Families are emitted in sorted-name order with
// one # TYPE line each; all samples of a family stay grouped, as the
// format requires. Mapping:
//
//	counter   -> <name> counter
//	gauge     -> <name> gauge, plus <name>_high gauge when a high-water
//	             mark exists
//	histogram -> <name> histogram (_bucket le=..., _sum, _count)
//
// Dots in metric names become underscores.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for start := 0; start < len(s.Metrics); {
		end := start
		for end < len(s.Metrics) && s.Metrics[end].Name == s.Metrics[start].Name {
			end++
		}
		family := s.Metrics[start:end]
		writePromFamily(&b, family)
		start = end
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writePromFamily emits one metric family (all label sets of one name),
// plus derived families (gauge high-water marks) grouped after it.
func writePromFamily(b *strings.Builder, family []Metric) {
	name := promName(family[0].Name)
	switch family[0].Kind {
	case KindCounter:
		fmt.Fprintf(b, "# TYPE %s counter\n", name)
		for _, m := range family {
			fmt.Fprintf(b, "%s%s %s\n", name, promLabels(m.Labels, "", 0), formatFloat(m.Value))
		}
	case KindGauge:
		fmt.Fprintf(b, "# TYPE %s gauge\n", name)
		for _, m := range family {
			fmt.Fprintf(b, "%s%s %s\n", name, promLabels(m.Labels, "", 0), formatFloat(m.Value))
		}
		hasHigh := false
		for _, m := range family {
			if m.High != 0 {
				hasHigh = true
				break
			}
		}
		if hasHigh {
			fmt.Fprintf(b, "# TYPE %s_high gauge\n", name)
			for _, m := range family {
				fmt.Fprintf(b, "%s_high%s %s\n", name, promLabels(m.Labels, "", 0), formatFloat(m.High))
			}
		}
	case KindHistogram:
		fmt.Fprintf(b, "# TYPE %s histogram\n", name)
		for _, m := range family {
			for _, bk := range m.Buckets {
				fmt.Fprintf(b, "%s_bucket%s %d\n", name, promLabels(m.Labels, "le", bk.LE), bk.Count)
			}
			if len(m.Buckets) == 0 { // never observed and never initialized
				fmt.Fprintf(b, "%s_bucket%s %d\n", name, promLabels(m.Labels, "le", inf), int64(0))
			}
			fmt.Fprintf(b, "%s_sum%s %s\n", name, promLabels(m.Labels, "", 0), formatFloat(m.Sum))
			fmt.Fprintf(b, "%s_count%s %d\n", name, promLabels(m.Labels, "", 0), m.Count)
		}
	}
}

// promName maps a dotted registry name onto the Prometheus identifier
// grammar.
func promName(name string) string {
	return strings.ReplaceAll(name, ".", "_")
}

// promLabels renders a {k="v",...} block, optionally appending an le
// bucket label; it returns "" when there is nothing to render.
func promLabels(labels []Label, le string, leVal float64) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, le, formatFloat(leVal))
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the exposition-format label escapes.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatFloat renders a sample value: shortest round-trip representation,
// +Inf spelled the way Prometheus expects.
func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	if math.IsInf(f, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
