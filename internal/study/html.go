package study

import (
	"context"
	"fmt"
	"html/template"
	"sort"
	"strings"
)

// HTMLReport renders the entire study as one self-contained HTML document:
// the headline summary, every experiment's text artifact, and every figure
// inline as SVG. The output has no external dependencies — it opens directly
// in a browser. Experiment texts come through Experiment.Render, so the
// report and the per-key texts of one Study share a single run of each
// experiment.
func (s *Study) HTMLReport(ctx context.Context) (string, error) {
	texts, figs := s.Everything(ctx), s.SVGFigures()
	type section struct {
		Title string
		Body  string
	}
	type figure struct {
		Name string
		SVG  template.HTML
	}
	data := struct {
		Seed     int64
		Summary  Summary
		Sections []section
		Figures  []figure
		Taxa     []TaxonCount
	}{
		Seed:    s.Seed,
		Summary: s.Summary(),
		Taxa:    s.TaxonCounts(),
	}

	for _, body := range texts {
		title := body
		if i := strings.IndexByte(body, '\n'); i > 0 {
			title = body[:i]
		}
		data.Sections = append(data.Sections, section{Title: title, Body: body})
	}
	names := make([]string, 0, len(figs))
	for name := range figs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		// The SVG is generated entirely by this package from numeric data;
		// marking it as trusted HTML is safe.
		data.Figures = append(data.Figures, figure{Name: name, SVG: template.HTML(figs[name])})
	}

	var b strings.Builder
	tmpl := template.Must(template.New("report").Parse(htmlReportTemplate))
	if err := tmpl.Execute(&b, data); err != nil {
		return "", fmt.Errorf("study: html report: %w", err)
	}
	return b.String(), nil
}

const htmlReportTemplate = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Schema Evolution Profiles — reproduction report (seed {{.Seed}})</title>
<style>
  body { font-family: Georgia, serif; max-width: 72rem; margin: 2rem auto; padding: 0 1rem; color: #222; }
  h1 { border-bottom: 3px double #888; padding-bottom: .3rem; }
  h2 { margin-top: 2.2rem; color: #1f3d5c; }
  pre { background: #f7f7f4; border: 1px solid #ddd; padding: .8rem; overflow-x: auto; font-size: .82rem; line-height: 1.25; }
  table.summary { border-collapse: collapse; margin: 1rem 0; }
  table.summary td, table.summary th { border: 1px solid #bbb; padding: .3rem .7rem; text-align: right; }
  table.summary th { background: #eef2f6; }
  .fig { margin: 1.5rem 0; }
  .fig figcaption { font-style: italic; font-size: .9rem; color: #555; }
</style>
</head>
<body>
<h1>Profiles of Schema Evolution — reproduction report</h1>
<p>Deterministic run at seed {{.Seed}}: {{.Summary.Cloned}} cloned projects,
{{.Summary.Rigid}} rigid, {{.Summary.StudySet}} studied. Applied reed limit
{{.Summary.ReedLimit}} (re-derived: {{.Summary.DerivedLimit}}).</p>

<table class="summary">
<tr><th>taxon</th><th>projects</th><th>median activity</th><th>median active commits</th></tr>
{{range .Taxa}}<tr>
  <td style="text-align:left">{{.Taxon}}</td>
  <td>{{.Count}}</td>
  <td>{{(index $.Summary.MedianByTaxon .Taxon.Short).Activity}}</td>
  <td>{{(index $.Summary.MedianByTaxon .Taxon.Short).ActiveCommits}}</td>
</tr>{{end}}
</table>

<h2>Figures</h2>
{{range .Figures}}
<figure class="fig">
{{.SVG}}
<figcaption>{{.Name}}</figcaption>
</figure>
{{end}}

<h2>Experiments</h2>
{{range .Sections}}
<h3>{{.Title}}</h3>
<pre>{{.Body}}</pre>
{{end}}

</body>
</html>
`
