package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus writes the registry's current state in the Prometheus
// text exposition format (version 0.0.4): # HELP / # TYPE headers, one
// sample line per child, histograms expanded into cumulative _bucket
// series plus _sum and _count. Output order is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	for _, f := range snap.Families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, m := range f.Metrics {
			if f.Type == "histogram" {
				if err := writeHistogramText(w, f.Name, m); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, labelString(m.Labels, "", 0), formatValue(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogramText(w io.Writer, name string, m MetricSnapshot) error {
	for _, b := range m.Buckets {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, labelString(m.Labels, "le", b.LE), b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		name, labelString(m.Labels, "le", math.Inf(1)), m.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(m.Labels, "", 0), formatValue(m.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(m.Labels, "", 0), m.Count)
	return err
}

// labelString renders {k="v",...}, optionally appending an le bucket
// label; empty label sets render as "".
func labelString(labels map[string]string, le string, leVal float64) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(labels[k]))
		sb.WriteByte('"')
	}
	if le != "" {
		if len(keys) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(le)
		sb.WriteString(`="`)
		sb.WriteString(formatValue(leVal))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// HandlerWithHealth serves the Prometheus text format at /metrics and the
// JSON snapshot at /metrics.json, plus orchestration probes and build
// identification: /healthz always answers 200 (the process is alive),
// /readyz answers 200 only while ready() is true and 503 otherwise — a
// draining daemon flips it so load balancers stop routing to it before the
// listener goes away — and /version reports the binary's build info as
// JSON (see Version). A nil ready means always ready.
//
// The returned mux is open for further registration, so a daemon can mount
// additional surfaces (the scenario API, the dashboard) on the same
// listener.
func (r *Registry) HandlerWithHealth(ready func() bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready != nil && !ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/version", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(Version())
	})
	return mux
}

// HandlerWithHealth serves the Default registry with a readiness probe and
// the /version endpoint; the returned mux accepts further routes.
func HandlerWithHealth(ready func() bool) *http.ServeMux {
	return Default.HandlerWithHealth(ready)
}
