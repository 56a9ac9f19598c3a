// Package ingest turns user-supplied DDL histories into study-grade
// profiles: schema-evolution-as-a-service. An upload — a JSON version list,
// a tar archive of .sql dumps, a single annotated SQL dump, or a reference
// to a local git repository — is decoded into a history.History, normalized
// into a canonical byte form, and content-addressed by the SHA-256 of those
// bytes. Two uploads describing the same logical history therefore share one
// identity, one pipeline run, one cache entry and one store snapshot,
// regardless of upload format or field ordering.
//
// Run executes the paper's parse→diff→heartbeat→classify pipeline on the
// normalized history and renders a deterministic artifact set:
//
//	profile.json        measures, taxon, shape, overall compatibility
//	compatibility.json  per-version backward/forward/breaking classification
//	heartbeat.csv       the transition heartbeat (expansion/maintenance)
//	history.json        the normalized history itself (the content address)
//
// Identical uploads yield byte-identical artifacts — the property the
// serving layer's dedup, persistence and proxy tiers are built on.
package ingest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/schemaevo/schemaevo/internal/core"
	"github.com/schemaevo/schemaevo/internal/history"
	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/sqlparse"
)

// Artifact keys of an ingested history, the namespace shared by the serving
// layer's memo and the store snapshots (like the seed artifact keys).
const (
	ArtifactProfile       = "profile.json"
	ArtifactCompatibility = "compatibility.json"
	ArtifactHeartbeat     = "heartbeat.csv"
	ArtifactHistory       = "history.json"
)

// ArtifactKeys lists every ingest artifact key in sorted order.
func ArtifactKeys() []string {
	return []string{ArtifactCompatibility, ArtifactHeartbeat, ArtifactHistory, ArtifactProfile}
}

// ErrNoUsableVersions reports an upload whose versions were all dropped by
// the paper's filter (empty files, no CREATE TABLE statement) — a client
// error, not a pipeline failure.
var ErrNoUsableVersions = errors.New("ingest: no usable versions after filtering (each version needs at least one CREATE TABLE)")

// Upload is a decoded, normalized, content-addressed history ready to run.
type Upload struct {
	// History is the canonical decoded history (times in UTC, defaults
	// filled, versions renumbered).
	History *history.History
	// Normalized is the canonical byte form the identity is derived from; it
	// is also served verbatim as the history.json artifact.
	Normalized []byte
	// ID is the hex SHA-256 of Normalized — the history's public identity.
	ID string
}

// Key returns the upload's int64 routing/cache/store key.
func (u *Upload) Key() int64 { return Key(u.ID) }

// ValidID reports whether id is a well-formed history identity: 64 lowercase
// hex characters.
func ValidID(id string) bool {
	if len(id) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Key derives the int64 key the infrastructure tiers (consistent-hash ring,
// LRU, singleflight, snapshot store, event bus) use for a history: the first
// 16 hex digits of the identity, interpreted as a big-endian uint64. The
// full ID disambiguates the (astronomically unlikely) truncation collision —
// snapshot restores verify it.
func Key(id string) int64 {
	if len(id) < 16 {
		return 0
	}
	u, err := strconv.ParseUint(id[:16], 16, 64)
	if err != nil {
		return 0
	}
	return int64(u)
}

// normalizeFormat versions the canonical byte form. Bumping it changes every
// history's identity, so it only moves when the normalization rules do.
// Format 2 added the dialect field (auto-detected when not supplied).
const normalizeFormat = 2

// normalizedHistory is the canonical serialized form. Field order is fixed
// by the struct and map-free, so encoding/json emits deterministic bytes.
type normalizedHistory struct {
	Format         int                 `json:"format"`
	Project        string              `json:"project"`
	Path           string              `json:"path,omitempty"`
	Dialect        string              `json:"dialect"`
	ProjectCommits int                 `json:"project_commits"`
	ProjectStart   time.Time           `json:"project_start"`
	ProjectEnd     time.Time           `json:"project_end"`
	Versions       []normalizedVersion `json:"versions"`
}

type normalizedVersion struct {
	ID   int       `json:"id"`
	When time.Time `json:"when"`
	SQL  string    `json:"sql"`
}

// syntheticBase anchors deterministic timestamps for uploads that carry
// none: version i lands at base + i days. Any fixed instant works; this one
// predates every plausible real history, making synthetic times easy to
// spot.
var syntheticBase = time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)

// canonicalize rewrites a decoded history into its canonical form: UTC
// times, missing timestamps filled deterministically (previous version + 1
// day), defaulted project fields, renumbered version IDs. It returns an
// error for histories no pipeline run could accept.
func canonicalize(h *history.History) error {
	if len(h.Versions) == 0 {
		return errors.New("ingest: history has no versions")
	}
	if h.Project == "" {
		h.Project = "upload"
	}
	prev := syntheticBase.Add(-24 * time.Hour)
	for i := range h.Versions {
		v := &h.Versions[i]
		v.ID = i
		if v.When.IsZero() {
			v.When = prev.Add(24 * time.Hour)
		} else {
			v.When = v.When.UTC()
		}
		if v.When.Before(prev) {
			return fmt.Errorf("ingest: version %d is timestamped before version %d", i, i-1)
		}
		prev = v.When
	}
	if h.ProjectCommits <= 0 {
		h.ProjectCommits = len(h.Versions)
	}
	if h.ProjectStart.IsZero() {
		h.ProjectStart = h.Versions[0].When
	} else {
		h.ProjectStart = h.ProjectStart.UTC()
	}
	if h.ProjectEnd.IsZero() {
		h.ProjectEnd = h.Versions[len(h.Versions)-1].When
	} else {
		h.ProjectEnd = h.ProjectEnd.UTC()
	}
	return nil
}

// resolveDialect pins the history's dialect to a canonical name: a
// client-supplied label is validated, an absent one is auto-detected from
// the DDL text. Detection is deterministic, so the dialect (and with it the
// content address) is a pure function of the upload.
func resolveDialect(h *history.History) error {
	if h.Dialect != "" {
		d, ok := sqlparse.DialectByName(h.Dialect)
		if !ok {
			return fmt.Errorf("ingest: unknown dialect %q; one of %s",
				h.Dialect, strings.Join(sqlparse.DialectNames(), ", "))
		}
		h.Dialect = d.Name()
		return nil
	}
	// Detection reads a bounded prefix; feed it versions until that window
	// is full so a trivial first version cannot mask a later, clearly
	// dialect-marked dump.
	var b strings.Builder
	for _, v := range h.Versions {
		if b.Len() >= 64<<10 {
			break
		}
		b.WriteString(v.SQL)
		b.WriteByte('\n')
	}
	h.Dialect = sqlparse.Detect(b.String()).Name()
	return nil
}

// finish canonicalizes a decoded history and derives its content address.
func finish(h *history.History) (*Upload, error) {
	if err := canonicalize(h); err != nil {
		return nil, err
	}
	if err := resolveDialect(h); err != nil {
		return nil, err
	}
	n := normalizedHistory{
		Format:         normalizeFormat,
		Project:        h.Project,
		Path:           h.Path,
		Dialect:        h.Dialect,
		ProjectCommits: h.ProjectCommits,
		ProjectStart:   h.ProjectStart,
		ProjectEnd:     h.ProjectEnd,
		Versions:       make([]normalizedVersion, len(h.Versions)),
	}
	for i, v := range h.Versions {
		n.Versions[i] = normalizedVersion{ID: v.ID, When: v.When, SQL: v.SQL}
	}
	buf, err := json.MarshalIndent(n, "", " ")
	if err != nil {
		return nil, fmt.Errorf("ingest: marshal normalized history: %w", err)
	}
	buf = append(buf, '\n')
	sum := sha256.Sum256(buf)
	return &Upload{History: h, Normalized: buf, ID: hex.EncodeToString(sum[:])}, nil
}

// Profile is the study-grade summary of one ingested history — the
// profile.json artifact.
type Profile struct {
	ID              string        `json:"id"`
	Project         string        `json:"project"`
	Dialect         string        `json:"dialect"`
	Versions        int           `json:"versions"`
	DroppedVersions int           `json:"dropped_versions"`
	ParseErrors     int           `json:"parse_errors"`
	Taxon           string        `json:"taxon"`
	TaxonShort      string        `json:"taxon_short"`
	TaxonDefinition string        `json:"taxon_definition"`
	Shape           string        `json:"shape"`
	Compatibility   string        `json:"compatibility"`
	Measures        core.Measures `json:"measures"`
}

// Result is one completed ingest run.
type Result struct {
	ID            string
	Profile       Profile
	Compatibility Report
	// Artifacts is the deterministic rendered set, keyed by the Artifact*
	// constants — what the serving layer memoizes and persists.
	Artifacts map[string][]byte
}

// Run executes the full pipeline on a prepared upload: parse every version
// once, dropping those without DDL, diff every transition, measure the
// heartbeat, classify the taxon and the per-version compatibility levels,
// then render the artifact set.
// Stages trace as ingest.* obs spans, so SSE watchers of the history's key
// see progress live and the stage histograms pick up the new traffic class.
func Run(ctx context.Context, u *Upload) (*Result, error) {
	ctx, span := obs.Start(ctx, "ingest.run",
		obs.String("history", u.ID[:16]), obs.Int("versions", int64(len(u.History.Versions))))
	defer span.End()

	// Filtering drops versions in place, so run it on a copy: the upload's
	// canonical history (and its normalized bytes) must keep every version.
	h := *u.History
	h.Versions = append([]history.Version(nil), u.History.Versions...)
	a, dropped, err := history.AnalyzeFiltered(ctx, &h)
	if len(h.Versions) == 0 {
		return nil, ErrNoUsableVersions
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: analyze: %w", err)
	}

	_, cls := obs.Start(ctx, "ingest.classify")
	m := core.Measure(a, core.DefaultReedLimit)
	taxon := core.Classify(m)
	shape := core.ShapeOf(a)
	report := Classify(u.ID, a)
	cls.SetAttr(obs.String("taxon", taxon.Short()))
	cls.End()

	profile := Profile{
		ID:              u.ID,
		Project:         h.Project,
		Dialect:         h.Dialect,
		Versions:        len(h.Versions),
		DroppedVersions: dropped,
		ParseErrors:     a.ParseErrors,
		Taxon:           taxon.String(),
		TaxonShort:      taxon.Short(),
		TaxonDefinition: taxon.Definition(),
		Shape:           shape.String(),
		Compatibility:   report.Overall,
		Measures:        m,
	}

	_, rnd := obs.Start(ctx, "ingest.render")
	arts, err := renderArtifacts(u, profile, report, m)
	rnd.End()
	if err != nil {
		return nil, err
	}
	return &Result{ID: u.ID, Profile: profile, Compatibility: report, Artifacts: arts}, nil
}

// renderArtifacts produces the complete deterministic artifact set.
func renderArtifacts(u *Upload, p Profile, rep Report, m core.Measures) (map[string][]byte, error) {
	profJSON, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return nil, fmt.Errorf("ingest: marshal profile: %w", err)
	}
	repJSON, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return nil, fmt.Errorf("ingest: marshal compatibility report: %w", err)
	}
	var hb strings.Builder
	hb.WriteString("transition,when,expansion,maintenance,activity\n")
	for _, b := range m.Heartbeat {
		fmt.Fprintf(&hb, "%d,%s,%d,%d,%d\n",
			b.TransitionID, b.When.UTC().Format(time.RFC3339), b.Expansion, b.Maintenance, b.Activity())
	}
	return map[string][]byte{
		ArtifactProfile:       append(profJSON, '\n'),
		ArtifactCompatibility: append(repJSON, '\n'),
		ArtifactHeartbeat:     []byte(hb.String()),
		ArtifactHistory:       u.Normalized,
	}, nil
}

// SortedKeys returns an artifact map's keys in sorted order — the stable
// listing the HTTP layer reports.
func SortedKeys(arts map[string][]byte) []string {
	out := make([]string, 0, len(arts))
	for k := range arts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
