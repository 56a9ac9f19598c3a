package ingest

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"path"
	"sort"
	"strings"
	"time"

	"github.com/schemaevo/schemaevo/internal/history"
)

// Upload media types. Prepare dispatches on the Content-Type header's media
// type (parameters like charset are ignored).
const (
	MediaJSON  = "application/json"  // version list document
	MediaTar   = "application/x-tar" // archive of .sql dumps, one per version
	MediaSQL   = "application/sql"   // single dump with version separators
	MediaPlain = "text/plain"        // alias of application/sql
)

// ErrUnsupportedMedia reports a Content-Type no decoder accepts — the HTTP
// layer maps it to 415 Unsupported Media Type.
var ErrUnsupportedMedia = errors.New("ingest: unsupported content type")

// MaxVersions bounds the number of versions one upload may carry; beyond it
// the analyze fan-in stops being interactive-request material.
const MaxVersions = 4096

// SupportedMediaTypes lists the accepted upload media types, sorted.
func SupportedMediaTypes() []string {
	return []string{MediaJSON, MediaSQL, MediaTar, MediaPlain}
}

// Prepare decodes body according to contentType, canonicalizes the history
// and derives its content address. The returned Upload is what Run executes
// and what the proxy routes by.
func Prepare(contentType string, body []byte) (*Upload, error) {
	media := mediaTypeOf(contentType)
	var (
		h   *history.History
		err error
	)
	switch media {
	case MediaJSON:
		h, err = decodeJSON(body)
	case MediaTar:
		h, err = decodeTar(body)
	case MediaSQL, MediaPlain:
		h, err = decodeDump(body)
	default:
		return nil, fmt.Errorf("%w %q; send one of %s",
			ErrUnsupportedMedia, contentType, strings.Join(SupportedMediaTypes(), ", "))
	}
	if err != nil {
		return nil, err
	}
	if len(h.Versions) > MaxVersions {
		return nil, fmt.Errorf("ingest: %d versions exceeds the per-upload bound of %d", len(h.Versions), MaxVersions)
	}
	return finish(h)
}

// mediaTypeOf extracts the media type from a Content-Type header. Headers
// that mime.ParseMediaType rejects (a trailing semicolon, an empty or
// malformed parameter — "application/json;" is what several HTTP clients
// send) must not fail the whole upload: fall back to the text before the
// parameter section, normalized the way ParseMediaType would have.
func mediaTypeOf(contentType string) string {
	if mt, _, err := mime.ParseMediaType(contentType); err == nil {
		return mt
	}
	media := contentType
	if i := strings.IndexByte(media, ';'); i >= 0 {
		media = media[:i]
	}
	return strings.ToLower(strings.TrimSpace(media))
}

// jsonUpload is the application/json request document: an inline history.
// Unknown fields are rejected, so a document naming a server-side path to
// read (the removed git-ref form, {"repo", "path"}) is a 400.
type jsonUpload struct {
	Project        string        `json:"project"`
	Path           string        `json:"path"`
	Dialect        string        `json:"dialect"`
	ProjectCommits int           `json:"project_commits"`
	ProjectStart   time.Time     `json:"project_start"`
	ProjectEnd     time.Time     `json:"project_end"`
	Versions       []jsonVersion `json:"versions"`
}

type jsonVersion struct {
	When time.Time `json:"when"`
	SQL  string    `json:"sql"`
}

func decodeJSON(body []byte) (*history.History, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var doc jsonUpload
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("ingest: decode json upload: %w", err)
	}
	if len(doc.Versions) == 0 {
		return nil, errors.New("ingest: json upload has no versions")
	}
	h := &history.History{
		Project:        doc.Project,
		Path:           doc.Path,
		Dialect:        doc.Dialect,
		ProjectCommits: doc.ProjectCommits,
		ProjectStart:   doc.ProjectStart,
		ProjectEnd:     doc.ProjectEnd,
	}
	for i, v := range doc.Versions {
		h.Versions = append(h.Versions, history.Version{ID: i, When: v.When, SQL: v.SQL})
	}
	return h, nil
}

// decodeTar reads an archive of SQL dumps: every regular *.sql entry is one
// version, ordered by entry name (so v001.sql … v010.sql upload in the
// obvious order); entry mod times become version timestamps when present.
// Hidden entries are skipped: macOS archives carry AppleDouble resource
// forks ("._schema.sql") whose binary payload would otherwise become a
// phantom version and corrupt the content address.
func decodeTar(body []byte) (*history.History, error) {
	type entry struct {
		name string
		when time.Time
		sql  string
	}
	var entries []entry
	tr := tar.NewReader(bytes.NewReader(body))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("ingest: read tar: %w", err)
		}
		base := path.Base(hdr.Name)
		if hdr.Typeflag != tar.TypeReg || !strings.HasSuffix(base, ".sql") || strings.HasPrefix(base, ".") {
			continue
		}
		if len(entries) >= MaxVersions {
			return nil, fmt.Errorf("ingest: tar carries more than %d .sql entries", MaxVersions)
		}
		sql, err := io.ReadAll(tr)
		if err != nil {
			return nil, fmt.Errorf("ingest: read tar entry %s: %w", hdr.Name, err)
		}
		when := hdr.ModTime
		if when.Unix() <= 0 { // epoch/zero mod times mean "not set"
			when = time.Time{}
		}
		entries = append(entries, entry{name: hdr.Name, when: when, sql: string(sql)})
	}
	if len(entries) == 0 {
		return nil, errors.New("ingest: tar carries no .sql entries")
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	h := &history.History{Project: projectFromName(entries[0].name)}
	for i, e := range entries {
		h.Versions = append(h.Versions, history.Version{ID: i, When: e.when, SQL: e.sql})
	}
	return h, nil
}

// projectFromName derives a project label from the archive's leading
// directory component, if it has one.
func projectFromName(name string) string {
	if i := strings.IndexByte(name, '/'); i > 0 {
		return name[:i]
	}
	return ""
}

// versionSeparator starts a new version inside an application/sql dump. The
// rest of the line optionally carries an RFC 3339 timestamp:
//
//	-- schemaevo:version 2014-05-01T00:00:00Z
//	CREATE TABLE t (...);
const versionSeparator = "-- schemaevo:version"

// decodeDump splits one annotated SQL dump into versions at its
// `-- schemaevo:version` separator lines. Text before the first separator
// belongs to version 0 when non-blank (a dump without any separator is a
// single-version history).
func decodeDump(body []byte) (*history.History, error) {
	h := &history.History{}
	var cur strings.Builder
	var curWhen time.Time
	started := false
	flush := func() error {
		text := cur.String()
		if !started && strings.TrimSpace(text) == "" {
			return nil
		}
		if len(h.Versions) >= MaxVersions {
			return fmt.Errorf("ingest: dump carries more than %d versions", MaxVersions)
		}
		h.Versions = append(h.Versions, history.Version{When: curWhen, SQL: text})
		return nil
	}
	for _, line := range strings.SplitAfter(string(body), "\n") {
		trimmed := strings.TrimRight(line, "\r\n")
		if strings.HasPrefix(trimmed, versionSeparator) {
			if err := flush(); err != nil {
				return nil, err
			}
			cur.Reset()
			started = true
			curWhen = time.Time{}
			if rest := strings.TrimSpace(trimmed[len(versionSeparator):]); rest != "" {
				when, err := time.Parse(time.RFC3339, rest)
				if err != nil {
					return nil, fmt.Errorf("ingest: bad timestamp on version separator %q: %w", rest, err)
				}
				curWhen = when
			}
			continue
		}
		cur.WriteString(line)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(h.Versions) == 0 {
		return nil, errors.New("ingest: dump is empty")
	}
	for i := range h.Versions {
		h.Versions[i].ID = i
	}
	return h, nil
}
