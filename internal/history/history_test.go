package history

import (
	"fmt"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/gitstore"
)

func day(n int) time.Time {
	return time.Date(2019, 1, 1, 12, 0, 0, 0, time.UTC).AddDate(0, 0, n)
}

func hist(versions ...string) *History {
	h := &History{Project: "p", Path: "schema.sql"}
	for i, sql := range versions {
		h.Versions = append(h.Versions, Version{ID: i, When: day(i * 10), SQL: sql})
	}
	if len(h.Versions) > 0 {
		h.ProjectStart = h.Versions[0].When.AddDate(0, -1, 0)
		h.ProjectEnd = h.Versions[len(h.Versions)-1].When.AddDate(0, 1, 0)
		h.ProjectCommits = len(h.Versions) * 10
	}
	return h
}

func TestFilterDropsEmptyAndNonDDL(t *testing.T) {
	h := hist(
		"CREATE TABLE t (id INT);",
		"",
		"INSERT INTO t VALUES (1);",
		"CREATE TABLE t (id INT, v INT);",
	)
	dropped := h.Filter()
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if len(h.Versions) != 2 {
		t.Fatalf("versions = %d, want 2", len(h.Versions))
	}
	if h.Versions[0].ID != 0 || h.Versions[1].ID != 1 {
		t.Fatal("IDs not renumbered")
	}
}

func TestIsHistoryLess(t *testing.T) {
	if !hist("CREATE TABLE t (id INT);").IsHistoryLess() {
		t.Error("single version should be history-less")
	}
	if hist("CREATE TABLE t (id INT);", "CREATE TABLE t (id INT, v INT);").IsHistoryLess() {
		t.Error("two versions is a real history")
	}
}

func TestAnalyzeTransitions(t *testing.T) {
	h := hist(
		"CREATE TABLE a (x INT);",
		"CREATE TABLE a (x INT, y INT);",                                   // +1 injected
		"CREATE TABLE a (x INT, y INT); -- comment",                        // no logical change
		"CREATE TABLE a (x BIGINT, y INT);",                                // type change
		"CREATE TABLE a (x BIGINT, y INT); CREATE TABLE b (p INT, q INT);", // +2 born
	)
	a, err := Analyze(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Transitions) != 4 {
		t.Fatalf("transitions = %d, want 4", len(a.Transitions))
	}
	wantActive := []bool{true, false, true, true}
	wantActivity := []int{1, 0, 1, 2}
	for i, tr := range a.Transitions {
		if tr.Delta.IsActive() != wantActive[i] {
			t.Errorf("transition %d active = %v", i, tr.Delta.IsActive())
		}
		if tr.Delta.Activity() != wantActivity[i] {
			t.Errorf("transition %d activity = %d, want %d", i, tr.Delta.Activity(), wantActivity[i])
		}
	}
	// Timing: transition i lands at day (i+1)*10.
	if a.Transitions[0].DaysSinceV0 != 10 {
		t.Errorf("DaysSinceV0 = %v", a.Transitions[0].DaysSinceV0)
	}
	// Sizes.
	last := a.Transitions[3]
	if last.TablesBefore != 1 || last.TablesAfter != 2 {
		t.Errorf("tables %d→%d", last.TablesBefore, last.TablesAfter)
	}
	if last.AttrsBefore != 2 || last.AttrsAfter != 4 {
		t.Errorf("attrs %d→%d", last.AttrsBefore, last.AttrsAfter)
	}
}

func TestAnalyzeEmptyHistoryFails(t *testing.T) {
	if _, err := Analyze(&History{Project: "void"}); err == nil {
		t.Fatal("expected error on empty history")
	}
}

func TestSchemaAndProjectPeriods(t *testing.T) {
	h := hist("CREATE TABLE t (id INT);", "CREATE TABLE t (id INT, v INT);", "CREATE TABLE t (id INT, v INT, w INT);")
	sup := h.SchemaUpdatePeriod()
	if got := sup.Hours() / 24; got != 20 {
		t.Errorf("SUP = %v days, want 20", got)
	}
	pup := h.ProjectUpdatePeriod()
	if pup <= sup {
		t.Error("PUP must exceed SUP in this fixture")
	}
}

func TestSizeSeries(t *testing.T) {
	h := hist(
		"CREATE TABLE a (x INT);",
		"CREATE TABLE a (x INT); CREATE TABLE b (y INT, z INT);",
	)
	a, _ := Analyze(h)
	ss := a.SizeSeries()
	if len(ss) != 2 {
		t.Fatalf("series length = %d", len(ss))
	}
	if ss[0].Tables != 1 || ss[0].Attrs != 1 {
		t.Errorf("point 0 = %+v", ss[0])
	}
	if ss[1].Tables != 2 || ss[1].Attrs != 3 {
		t.Errorf("point 1 = %+v", ss[1])
	}
}

func TestMonthlyActivityZeroFillsGaps(t *testing.T) {
	h := &History{Project: "p", Path: "s.sql"}
	times := []time.Time{
		time.Date(2019, 1, 5, 0, 0, 0, 0, time.UTC),
		time.Date(2019, 1, 20, 0, 0, 0, 0, time.UTC),
		time.Date(2019, 4, 2, 0, 0, 0, 0, time.UTC),
	}
	sqls := []string{
		"CREATE TABLE t (a INT);",
		"CREATE TABLE t (a INT, b INT);",
		"CREATE TABLE t (a INT);",
	}
	for i := range times {
		h.Versions = append(h.Versions, Version{ID: i, When: times[i], SQL: sqls[i]})
	}
	a, _ := Analyze(h)
	months := a.MonthlyActivity()
	if len(months) != 4 { // Jan, Feb, Mar, Apr
		t.Fatalf("months = %d, want 4", len(months))
	}
	if months[0].Expansion != 1 || months[0].Commits != 1 {
		t.Errorf("Jan = %+v", months[0])
	}
	if months[1].Expansion != 0 || months[1].Maintenance != 0 {
		t.Errorf("Feb should be zero-filled: %+v", months[1])
	}
	if months[3].Maintenance != 1 {
		t.Errorf("Apr = %+v", months[3])
	}
}

func TestFromRepoEndToEnd(t *testing.T) {
	repo, err := gitstore.Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := gitstore.NewWorktree(repo, "master")
	sig := func(i int) gitstore.Signature {
		return gitstore.Signature{Name: "dev", Email: "d@e", When: day(i)}
	}
	// Commit 1: project starts, no schema yet.
	w.Set("README.md", []byte("hello"))
	w.Commit("init", sig(0))
	// Commit 2: schema appears.
	w.Set("db/schema.sql", []byte("CREATE TABLE t (id INT);"))
	w.Commit("add schema", sig(30))
	// Commit 3: unrelated change.
	w.Set("README.md", []byte("hello world"))
	w.Commit("docs", sig(60))
	// Commit 4: schema evolves.
	w.Set("db/schema.sql", []byte("CREATE TABLE t (id INT, v VARCHAR(10));"))
	w.Commit("add column", sig(90))

	h, err := FromRepo(repo, "proj", "db/schema.sql")
	if err != nil {
		t.Fatal(err)
	}
	if h.ProjectCommits != 4 {
		t.Errorf("ProjectCommits = %d, want 4", h.ProjectCommits)
	}
	if len(h.Versions) != 2 {
		t.Fatalf("versions = %d, want 2", len(h.Versions))
	}
	if got := h.ProjectUpdatePeriod().Hours() / 24; got != 90 {
		t.Errorf("PUP = %v days, want 90", got)
	}
	if got := h.SchemaUpdatePeriod().Hours() / 24; got != 60 {
		t.Errorf("SUP = %v days, want 60", got)
	}
	a, err := Analyze(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Transitions) != 1 || a.Transitions[0].Delta.Injected != 1 {
		t.Fatalf("transition = %+v", a.Transitions)
	}
}

func TestAnalyzeRecordsParseErrors(t *testing.T) {
	h := hist(
		"CREATE TABLE ok (id INT);",
		"CREATE TABLE ok (id INT); CREATE TABLE broken (id INT,,,;",
	)
	a, err := Analyze(h)
	if err != nil {
		t.Fatal(err)
	}
	if a.ParseErrors == 0 {
		t.Error("parse errors not surfaced")
	}
}

func TestManyVersionsStable(t *testing.T) {
	var versions []string
	for i := 1; i <= 40; i++ {
		sql := "CREATE TABLE t (id INT"
		for j := 0; j < i; j++ {
			sql += fmt.Sprintf(", c%d INT", j)
		}
		sql += ");"
		versions = append(versions, sql)
	}
	h := hist(versions...)
	a, err := Analyze(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Transitions) != 39 {
		t.Fatalf("transitions = %d", len(a.Transitions))
	}
	for i, tr := range a.Transitions {
		if tr.Delta.Injected != 1 || tr.Delta.Activity() != 1 {
			t.Fatalf("transition %d: %+v", i, tr.Delta)
		}
	}
}

// analyzed analyzes h, failing the test on error.
func analyzed(t *testing.T, h *History) *Analysis {
	t.Helper()
	a, err := Analyze(h)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSquashZeroWindowIsIdentity(t *testing.T) {
	h := hist("CREATE TABLE t (a INT);", "CREATE TABLE t (a INT, b INT);")
	a := analyzed(t, h)
	s := a.Squash(0)
	if len(s.History.Versions) != 2 || len(s.Transitions) != 1 {
		t.Fatalf("versions = %d, transitions = %d", len(s.History.Versions), len(s.Transitions))
	}
	if s.History.Versions[1].SQL != h.Versions[1].SQL || s.Transitions[0].Delta != a.Transitions[0].Delta {
		t.Fatal("identity squash altered content")
	}
	// It must be a copy, not an alias.
	s.History.Versions[0].SQL = "mutated"
	if h.Versions[0].SQL == "mutated" {
		t.Fatal("Squash shares version slice")
	}
}

func TestSquashCollapsesCloseCommits(t *testing.T) {
	h := &History{Project: "p", Path: "s.sql"}
	times := []time.Time{
		day(0),                    // kept
		day(0).Add(2 * time.Hour), // collapses into previous
		day(0).Add(4 * time.Hour), // collapses again
		day(5),                    // new cluster
	}
	sqls := []string{
		"CREATE TABLE t (a INT);",
		"CREATE TABLE t (a INT, b INT);",
		"CREATE TABLE t (a INT, b INT, c INT);",
		"CREATE TABLE t (a INT, c INT);",
	}
	for i := range times {
		h.Versions = append(h.Versions, Version{ID: i, When: times[i], SQL: sqls[i]})
	}
	s := analyzed(t, h).Squash(24 * time.Hour)
	if len(s.History.Versions) != 2 {
		t.Fatalf("versions = %d, want 2", len(s.History.Versions))
	}
	// The first cluster collapses onto its final state.
	if s.History.Versions[0].SQL != sqls[2] {
		t.Fatalf("cluster state = %q", s.History.Versions[0].SQL)
	}
	if s.History.Versions[0].ID != 0 || s.History.Versions[1].ID != 1 {
		t.Fatal("IDs not renumbered")
	}
	// V0 belongs to the first cluster, so the squashed baseline is already
	// (a,b,c); the single remaining transition ejects b, and its distance
	// from V0 is measured from the cluster's last member.
	if len(s.Transitions) != 1 {
		t.Fatalf("transitions = %d, want 1", len(s.Transitions))
	}
	tr := s.Transitions[0]
	if got := tr.Delta.Activity(); got != 1 {
		t.Fatalf("transition activity = %d, want 1 (eject b)", got)
	}
	if tr.FromID != 0 || tr.ToID != 1 || tr.DaysSinceV0 != 5-4.0/24 {
		t.Fatalf("transition %d→%d at %v days", tr.FromID, tr.ToID, tr.DaysSinceV0)
	}
}

func TestSquashChainWindows(t *testing.T) {
	// Chained closeness: each gap < window, so all collapse into one.
	h := &History{Project: "p", Path: "s.sql"}
	for i := 0; i < 5; i++ {
		h.Versions = append(h.Versions, Version{
			ID: i, When: day(0).Add(time.Duration(i) * time.Hour),
			SQL: "CREATE TABLE t (a INT);",
		})
	}
	s := analyzed(t, h).Squash(2 * time.Hour)
	if got := len(s.History.Versions); got != 1 || len(s.Schemas) != 1 || len(s.Transitions) != 0 {
		t.Fatalf("chained squash = %d versions, want 1", got)
	}
}

func TestPrefix(t *testing.T) {
	h := hist(
		"CREATE TABLE t (a INT);",
		"CREATE TABLE t (a INT, b INT);",
		"CREATE TABLE t (a INT, b INT, c INT);",
	)
	a := analyzed(t, h)
	p := a.Prefix(2)
	if len(p.History.Versions) != 2 || len(p.Schemas) != 2 || len(p.Transitions) != 1 {
		t.Fatalf("prefix versions = %d", len(p.History.Versions))
	}
	if p.History.ProjectCommits != h.ProjectCommits || !p.History.ProjectStart.Equal(h.ProjectStart) {
		t.Error("project context lost")
	}
	// Clamping to [1, len].
	if got := len(a.Prefix(99).History.Versions); got != 3 {
		t.Errorf("over-long prefix = %d versions", got)
	}
	if got := a.Prefix(-1); len(got.History.Versions) != 1 || len(got.Transitions) != 0 {
		t.Errorf("negative prefix = %d versions", len(got.History.Versions))
	}
	// Appending to the prefix must not write into the full analysis.
	p.History.Versions = append(p.History.Versions, Version{SQL: "mutated"})
	p.Schemas = append(p.Schemas, nil)
	p.Transitions = append(p.Transitions, Transition{FromID: -1})
	if h.Versions[2].SQL == "mutated" || a.Schemas[2] == nil || a.Transitions[1].FromID == -1 {
		t.Fatal("Prefix shares spare capacity with the full analysis")
	}
	// An Analysis built by hand carries no per-version parse errors; its
	// derived analyses still work and count none.
	hand := &Analysis{History: a.History, Schemas: a.Schemas, Transitions: a.Transitions, ParseErrors: 1}
	if p, s := hand.Prefix(2), hand.Squash(time.Hour); len(p.Schemas) != 2 || p.ParseErrors != 0 ||
		len(s.Schemas) != 3 || s.ParseErrors != 0 {
		t.Fatalf("hand-built analysis derives %d/%d schemas", len(p.Schemas), len(s.Schemas))
	}
}

func TestSchemaUpdatePeriodSingleVersion(t *testing.T) {
	if got := hist("CREATE TABLE t (a INT);").SchemaUpdatePeriod(); got != 0 {
		t.Errorf("single-version SUP = %v", got)
	}
}

func TestFromRepoErrors(t *testing.T) {
	repo, err := gitstore.Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// No HEAD commit yet.
	if _, err := FromRepo(repo, "p", "s.sql"); err == nil {
		t.Fatal("empty repository accepted")
	}
}

func TestFromRepoBranch(t *testing.T) {
	repo, err := gitstore.Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sig := func(i int) gitstore.Signature {
		return gitstore.Signature{Name: "d", Email: "d@e", When: day(i)}
	}
	// master: two schema versions.
	m := gitstore.NewWorktree(repo, "master")
	m.Set("schema.sql", []byte("CREATE TABLE t (a INT);"))
	m.Commit("v0", sig(0))
	m.Set("schema.sql", []byte("CREATE TABLE t (a INT, b INT);"))
	m.Commit("v1", sig(10))
	// dev branch: three versions, diverging content.
	d := gitstore.NewWorktree(repo, "dev")
	d.Set("schema.sql", []byte("CREATE TABLE t (a INT);"))
	d.Commit("d0", sig(0))
	d.Set("schema.sql", []byte("CREATE TABLE t (a INT, x INT);"))
	d.Commit("d1", sig(5))
	d.Set("schema.sql", []byte("CREATE TABLE t (a INT, x INT, y INT);"))
	d.Commit("d2", sig(6))

	hm, err := FromRepoBranch(repo, "p", "master", "schema.sql")
	if err != nil {
		t.Fatal(err)
	}
	hd, err := FromRepoBranch(repo, "p", "dev", "schema.sql")
	if err != nil {
		t.Fatal(err)
	}
	if len(hm.Versions) != 2 || len(hd.Versions) != 3 {
		t.Fatalf("versions: master=%d dev=%d", len(hm.Versions), len(hd.Versions))
	}
	if _, err := FromRepoBranch(repo, "p", "nope", "schema.sql"); err == nil {
		t.Fatal("missing branch accepted")
	}
}
