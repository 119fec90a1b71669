package cube

import (
	"fmt"
	"html/template"
	"io"
	"sort"
)

// RenderHTML writes a self-contained HTML page with the three panels
// of the result browser (Figures 6/7): the metric hierarchy with
// severity bars, the call-tree distribution of each non-zero metric,
// and the system-tree distribution at the hottest call path. No
// external assets; suitable for dropping into a CI artifact store.
func (r *Report) RenderHTML(w io.Writer) error {
	type metricRow struct {
		Indent  int
		Name    string
		Percent float64
		BarPct  float64
		Value   string
		IsTime  bool
	}
	type callRow struct {
		Indent int
		Name   string
		Value  float64
		Share  float64
	}
	type sysRow struct {
		Indent int
		Label  string
		Value  float64
	}
	type metricSection struct {
		Key     string
		Name    string
		HotPath string
		Calls   []callRow
		System  []sysRow
	}
	type heatCell struct {
		Alpha float64
		Title string
	}
	type heatRow struct {
		Label string
		Cells []heatCell
	}
	type heatPanel struct {
		Name string
		Max  float64
		Unit string
		Rows []heatRow
	}
	data := struct {
		Title      string
		TotalTime  float64
		NumProcs   int
		Metrics    []metricRow
		Sections   []metricSection
		Heatmap    []heatPanel
		HeatOrigin float64
		HeatWidth  float64
		HeatCount  int
	}{
		Title:     r.Title,
		TotalTime: r.TotalTime(),
		NumProcs:  len(r.Locs),
	}

	var walkMetric func(m, depth int)
	walkMetric = func(m, depth int) {
		md := &r.Metrics[m]
		row := metricRow{Indent: depth, Name: md.Name, IsTime: md.Unit == "sec"}
		if md.Unit == "sec" {
			row.Percent = r.percentOf(m, data.TotalTime)
			row.BarPct = row.Percent
			if row.BarPct > 100 {
				row.BarPct = 100
			}
		} else {
			row.Value = fmt.Sprintf("%.0f %s", r.MetricTotal(m), md.Unit)
		}
		data.Metrics = append(data.Metrics, row)
		for _, ch := range r.MetricChildren(m) {
			walkMetric(ch, depth+1)
		}
	}
	for i := range r.Metrics {
		if r.Metrics[i].Parent == -1 {
			walkMetric(i, 0)
		}
	}

	// One expandable section per leaf-ish metric with non-zero total,
	// most severe first, capped to keep the page light.
	type cand struct {
		idx   int
		total float64
	}
	var cands []cand
	for i := range r.Metrics {
		if r.Metrics[i].Unit != "sec" {
			continue
		}
		if len(r.MetricChildren(i)) > 0 && r.Metrics[i].Parent == -1 {
			continue // skip pure aggregation roots
		}
		if t := r.MetricTotal(i); t > 0 {
			cands = append(cands, cand{i, t})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].total > cands[j].total })
	if len(cands) > 12 {
		cands = cands[:12]
	}
	for _, c := range cands {
		m := c.idx
		sec := metricSection{Key: r.Metrics[m].Key, Name: r.Metrics[m].Name}
		total := r.MetricTotal(m)
		var walkCall func(cn, depth int)
		walkCall = func(cn, depth int) {
			v := r.MetricCallValue(m, cn)
			share := 0.0
			if total > 0 {
				share = 100 * v / total
			}
			sec.Calls = append(sec.Calls, callRow{Indent: depth, Name: r.Calls[cn].Name, Value: v, Share: share})
			children := r.CallChildren(cn)
			sort.Slice(children, func(i, j int) bool {
				return r.MetricCallInclusive(m, children[i]) > r.MetricCallInclusive(m, children[j])
			})
			for _, ch := range children {
				walkCall(ch, depth+1)
			}
		}
		for cn := range r.Calls {
			if r.Calls[cn].Parent == -1 {
				walkCall(cn, 0)
			}
		}
		hot, _ := r.HottestCall(m)
		if hot >= 0 {
			sec.HotPath = PathString(r.CallPath(hot))
			for _, mh := range r.MetahostNames() {
				sec.System = append(sec.System, sysRow{
					Indent: 0,
					Label:  mh,
					Value:  r.MetahostValue(m, hot, mh),
				})
				for l, loc := range r.Locs {
					if loc.MetahostName != mh {
						continue
					}
					sec.System = append(sec.System, sysRow{
						Indent: 1,
						Label:  fmt.Sprintf("node %d / rank %d", loc.Node, loc.Rank),
						Value:  r.MetricLocValue(m, hot, l),
					})
				}
			}
		}
		data.Sections = append(data.Sections, sec)
	}

	// Time-resolved severity heatmap: one panel per profiled metric,
	// one row per metahost (ranks summed), cell intensity scaled to the
	// panel's maximum bucket value. Omitted entirely when the report
	// carries no profile.
	if !r.Profile.Empty() {
		p := r.Profile
		data.HeatOrigin, data.HeatWidth, data.HeatCount = p.Origin, p.BucketWidth, p.Buckets
		for _, metric := range p.Metrics() {
			panel := heatPanel{Name: metric}
			for _, s := range p.Series {
				if s.Metric == metric {
					if s.Name != "" {
						panel.Name = s.Name
					}
					panel.Unit = s.Unit
					break
				}
			}
			rows := p.ByMetahost(metric)
			for _, row := range rows {
				for _, v := range row.Values {
					if v > panel.Max {
						panel.Max = v
					}
				}
			}
			for _, row := range rows {
				label := row.Name
				if label == "" {
					label = fmt.Sprintf("metahost %d", row.Metahost)
				}
				hr := heatRow{Label: label}
				for i, v := range row.Values {
					alpha := 0.0
					if panel.Max > 0 {
						alpha = v / panel.Max
					}
					left := p.Origin + float64(i)*p.BucketWidth
					hr.Cells = append(hr.Cells, heatCell{
						Alpha: alpha,
						Title: fmt.Sprintf("[%.4g, %.4g) s: %.4g %s", left, left+p.BucketWidth, v, panel.Unit),
					})
				}
				panel.Rows = append(panel.Rows, hr)
			}
			data.Heatmap = append(data.Heatmap, panel)
		}
	}
	return htmlTemplate.Execute(w, data)
}

var htmlTemplate = template.Must(template.New("cube").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}} — metascope analysis</title>
<style>
body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; color: #222; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; }
td, th { padding: 2px 8px; text-align: left; font-variant-numeric: tabular-nums; }
td.num { text-align: right; white-space: nowrap; }
.bar { display: inline-block; height: 10px; background: #c33; vertical-align: baseline; }
.indent { color: #777; }
details { margin: .5rem 0; } summary { cursor: pointer; font-weight: 600; }
.muted { color: #777; }
table.heat { width: auto; } table.heat td { padding: 0 1px; }
.hc { width: 9px; min-width: 9px; height: 16px; display: inline-block; border: 1px solid #eee; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
<p class="muted">{{.NumProcs}} processes · total time {{printf "%.3f" .TotalTime}} s · generated by metascope</p>

<h2>Metric hierarchy</h2>
<table>
{{range .Metrics}}<tr>
<td style="padding-left: {{.Indent}}rem">{{.Name}}</td>
{{if .IsTime}}<td class="num">{{printf "%.1f" .Percent}} %</td>
<td style="width: 30%"><span class="bar" style="width: {{printf "%.1f" .BarPct}}%"></span></td>
{{else}}<td class="num" colspan="2">{{.Value}}</td>{{end}}
</tr>
{{end}}</table>

{{if .Heatmap}}
<h2>Time-resolved severity</h2>
<p class="muted">{{.HeatCount}} intervals of {{printf "%.4g" .HeatWidth}} s starting at t = {{printf "%.4g" .HeatOrigin}} s; one row per metahost, ranks summed, intensity relative to each panel's peak interval</p>
{{range .Heatmap}}
<h3>{{.Name}}{{if .Unit}} <span class="muted">(peak {{printf "%.4g" .Max}} {{.Unit}}/interval)</span>{{end}}</h3>
<table class="heat">
{{range .Rows}}<tr>
<td>{{.Label}}</td>
{{range .Cells}}<td><span class="hc" title="{{.Title}}" style="background: rgba(204,51,51,{{printf "%.3f" .Alpha}})"></span></td>{{end}}
</tr>
{{end}}</table>
{{end}}
{{end}}

{{range .Sections}}
<details>
<summary>{{.Name}}</summary>
<h3>Call tree</h3>
<table>
{{range .Calls}}<tr>
<td style="padding-left: {{.Indent}}rem">{{.Name}}</td>
<td class="num">{{printf "%.3f" .Value}} s</td>
<td class="num">{{printf "%.1f" .Share}} %</td>
</tr>
{{end}}</table>
{{if .HotPath}}<h3>System tree at {{.HotPath}}</h3>
<table>
{{range .System}}<tr>
<td style="padding-left: {{.Indent}}rem">{{.Label}}</td>
<td class="num">{{printf "%.3f" .Value}} s</td>
</tr>
{{end}}</table>{{end}}
</details>
{{end}}
</body>
</html>
`))
