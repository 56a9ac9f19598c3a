package serve

import (
	"encoding/base64"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// TestForeignCursorRejected: a cursor that decodes but whose payload is not
// an id of the listed kind — garbage, or another kind's cursor — is
// malformed, not a silent restart from the first page.
func TestForeignCursorRejected(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	cursor := func(payload string) string { return base64.RawURLEncoding.EncodeToString([]byte(payload)) }
	for _, path := range []string{
		"/v1/seeds?cursor=" + cursor("v1:zzz"),
		"/v1/seeds?limit=2&cursor=" + cursor("v1:"+strings.Repeat("a", 64)),
		"/v1/histories?cursor=" + cursor("v1:42"),
		"/v1/seeds?cursor=" + cursor("v2:1"),
	} {
		code, body, _ := get(t, ts, path)
		if code != http.StatusBadRequest || !strings.Contains(body, "malformed cursor") {
			t.Errorf("%s: status %d: %s", path, code, body)
		}
	}
}

// pageRequest builds a listing request carrying the given raw query values.
func pageRequest(limit, cursor string) *http.Request {
	q := url.Values{}
	if limit != "" {
		q.Set("limit", limit)
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	return httptest.NewRequest(http.MethodGet, "/v1/seeds?"+q.Encode(), nil)
}

// FuzzParsePage: parsing never panics, and every next_cursor Page emits
// parses back to the page's last item and resumes strictly after it, so a
// walk visits every item once, in order.
func FuzzParsePage(f *testing.F) {
	f.Add("", "", []byte{1, 2, 3})
	f.Add("2", "", []byte{5, 1, 9, 9, 200})
	f.Add("1", base64.RawURLEncoding.EncodeToString([]byte("v1:3")), []byte{1, 3, 4})
	f.Add("x", "!!!", []byte{})
	f.Add("0", base64.RawURLEncoding.EncodeToString([]byte("v1:zzz")), []byte{7})
	f.Add("3", base64.RawURLEncoding.EncodeToString([]byte("v1:-9223372036854775808")), []byte{0, 255})
	f.Add("9223372036854775807", base64.RawURLEncoding.EncodeToString([]byte("v1:-290")), []byte{5, 6, 7})
	f.Fuzz(func(t *testing.T, limit, cursor string, raw []byte) {
		pr, err := Seeds.ParsePage(pageRequest(limit, cursor))
		if err != nil {
			return
		}
		if pr.Paged && pr.Limit <= 0 {
			t.Fatalf("parsed limit %d", pr.Limit)
		}
		if !pr.Paged {
			pr = PageRequest[int64]{Limit: 1 + len(raw)%4, Paged: true}
		}
		items := make([]int64, 0, len(raw))
		for i, b := range raw {
			items = append(items, int64(b)*int64(i+1)-300)
		}
		items = SortedUnion(items)

		var walked []int64
		for steps := 0; ; steps++ {
			if steps > len(items)+1 {
				t.Fatalf("walk did not terminate over %d items", len(items))
			}
			page, next := Seeds.Page(items, pr)
			walked = append(walked, page...)
			if next == "" {
				break
			}
			if len(page) == 0 {
				t.Fatal("an empty page carried a next cursor")
			}
			npr, err := Seeds.ParsePage(pageRequest(strconv.Itoa(pr.Limit), next))
			if err != nil {
				t.Fatalf("emitted cursor %q does not parse: %v", next, err)
			}
			if !npr.Resume || npr.After != page[len(page)-1] {
				t.Fatalf("cursor %q resumes after %d (resume %t), want after %d", next, npr.After, npr.Resume, page[len(page)-1])
			}
			if rest, _ := Seeds.Page(items, npr); len(rest) > 0 && rest[0] <= npr.After {
				t.Fatalf("page after cursor starts at %d, not after %d", rest[0], npr.After)
			}
			pr = npr
		}
		for i := 1; i < len(walked); i++ {
			if walked[i] <= walked[i-1] {
				t.Fatalf("walk not strictly ascending: %v", walked)
			}
		}
		if !pr.Resume && len(walked) != len(items) {
			t.Fatalf("walk from the start visited %d of %d items", len(walked), len(items))
		}
	})
}

// FuzzLastEventSeq: the SSE resume point never panics and is never
// negative, whatever the Last-Event-ID header or ?after= parameter holds.
func FuzzLastEventSeq(f *testing.F) {
	f.Add("", "")
	f.Add("3:600", "")
	f.Add("", "600")
	f.Add("-5", "")
	f.Add("1:-1", "7")
	f.Add(":", "::")
	f.Add("9223372036854775807", "")
	f.Add("1:9223372036854775808", "")
	f.Fuzz(func(t *testing.T, header, after string) {
		q := url.Values{}
		if after != "" {
			q.Set("after", after)
		}
		r := httptest.NewRequest(http.MethodGet, "/v1/seeds/1/events?"+q.Encode(), nil)
		if header != "" {
			r.Header.Set("Last-Event-ID", header)
		}
		if seq := lastEventSeq(r); seq < 0 {
			t.Fatalf("lastEventSeq(%q, %q) = %d", header, after, seq)
		}
	})
}
