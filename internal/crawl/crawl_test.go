package crawl

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"tableseg/internal/core"
	"tableseg/internal/eval"
	"tableseg/internal/sitegen"
)

func TestLinksResolutionAndDedup(t *testing.T) {
	html := `<a href="list1_detail1.html">A</a>
	<a href="/abs.html">B</a>
	<a href="list1_detail1.html">dup</a>
	<a href="#frag">skip</a>
	<a href="mailto:x@y">skip</a>
	<a href="http://other.example/x">keep</a>
	<a>no href</a>`
	got := Links("http://site.example/dir/list1.html", html)
	want := []string{
		"http://site.example/dir/list1_detail1.html",
		"http://site.example/abs.html",
		"http://other.example/x",
	}
	if len(got) != len(want) {
		t.Fatalf("links = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("link %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestMapFetcher(t *testing.T) {
	m := MapFetcher{"/a.html": "body"}
	if body, err := m.Fetch("/a.html"); err != nil || body != "body" {
		t.Errorf("direct fetch: %q, %v", body, err)
	}
	if body, err := m.Fetch("http://x.example/a.html"); err != nil || body != "body" {
		t.Errorf("path-fallback fetch: %q, %v", body, err)
	}
	if _, err := m.Fetch("/missing.html"); err == nil {
		t.Error("missing page must error")
	}
}

func TestDirFetcher(t *testing.T) {
	dir := t.TempDir()
	if err := writeFile(dir+"/page.html", "content"); err != nil {
		t.Fatal(err)
	}
	d := DirFetcher{Root: dir}
	if body, err := d.Fetch("/page.html"); err != nil || body != "content" {
		t.Errorf("fetch: %q, %v", body, err)
	}
	if _, err := d.Fetch("/../../etc/passwd"); err == nil {
		t.Error("path traversal must be rejected")
	}
	if _, err := d.Fetch("/missing.html"); err == nil {
		t.Error("missing file must error")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// harvestSite runs the harvester over a generated site's in-memory map
// and scores the result.
func harvestSite(t *testing.T, slug string, target int, method core.Method) (eval.Counts, *Result) {
	t.Helper()
	site, err := sitegen.GenerateBySlug(slug, 42)
	if err != nil {
		t.Fatal(err)
	}
	h := &Harvester{
		Fetcher: MapFetcher(site.SiteMap()),
		Options: core.DefaultOptions(method),
	}
	res, err := h.Harvest(context.Background(), []string{"/list1.html", "/list2.html"}, target)
	if err != nil {
		t.Fatal(err)
	}
	return eval.Score(res.Segmentation, site.Lists[target].Truth), res
}

func TestHarvestEndToEnd(t *testing.T) {
	for _, slug := range []string{"allegheny", "canada411", "ohio"} {
		counts, res := harvestSite(t, slug, 0, core.Probabilistic)
		if counts.Recall() < 1 || counts.Precision() < 0.95 {
			t.Errorf("%s: harvest scored %v", slug, counts)
		}
		// The ad links must have been rejected, and detail order must
		// follow link order.
		if len(res.RejectedURLs) < 3 {
			t.Errorf("%s: only %d rejected links (ads not filtered?)", slug, len(res.RejectedURLs))
		}
		for _, u := range res.DetailURLs {
			if strings.Contains(u, "_ad") {
				t.Errorf("%s: ad page %s classified as detail", slug, u)
			}
		}
		for i := 1; i < len(res.DetailURLs); i++ {
			if res.DetailURLs[i] <= res.DetailURLs[i-1] && len(res.DetailURLs[i]) == len(res.DetailURLs[i-1]) {
				t.Errorf("%s: detail order broken: %v", slug, res.DetailURLs)
			}
		}
	}
}

func TestHarvestOverHTTP(t *testing.T) {
	site, err := sitegen.GenerateBySlug("butler", 42)
	if err != nil {
		t.Fatal(err)
	}
	pages := site.SiteMap()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := pages[r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html")
		_, _ = w.Write([]byte(body))
	}))
	defer srv.Close()

	h := &Harvester{
		Fetcher: HTTPFetcher{Client: srv.Client()},
		Options: core.DefaultOptions(core.CSP),
	}
	res, err := h.Harvest(context.Background(), []string{srv.URL + "/list1.html", srv.URL + "/list2.html"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := eval.Score(res.Segmentation, site.Lists[0].Truth)
	if counts.Cor != len(site.Lists[0].Truth) {
		t.Errorf("HTTP harvest: %v", counts)
	}
}

func TestHarvestErrors(t *testing.T) {
	h := &Harvester{Fetcher: MapFetcher{}}
	if _, err := h.Harvest(context.Background(), nil, 0); err == nil {
		t.Error("no URLs must error")
	}
	if _, err := h.Harvest(context.Background(), []string{"/x.html"}, 5); err == nil {
		t.Error("bad target must error")
	}
	if _, err := h.Harvest(context.Background(), []string{"/x.html"}, 0); err == nil {
		t.Error("unfetchable list page must error")
	}
	// A list page with no links.
	h2 := &Harvester{Fetcher: MapFetcher{"/l.html": "<p>no links here</p>"}}
	if _, err := h2.Harvest(context.Background(), []string{"/l.html"}, 0); err == nil {
		t.Error("linkless page must error")
	}
	// Links exist but all of them 404.
	h3 := &Harvester{Fetcher: MapFetcher{"/l.html": `<a href="gone.html">x</a>`}}
	if _, err := h3.Harvest(context.Background(), []string{"/l.html"}, 0); err == nil {
		t.Error("all-broken links must error")
	}
}

func TestHarvestSkipsBrokenLinks(t *testing.T) {
	site, err := sitegen.GenerateBySlug("lee", 42)
	if err != nil {
		t.Fatal(err)
	}
	pages := site.SiteMap()
	// Break one ad link; the harvest must still succeed.
	delete(pages, "/list1_ad1.html")
	h := &Harvester{Fetcher: MapFetcher(pages), Options: core.DefaultOptions(core.Probabilistic)}
	res, err := h.Harvest(context.Background(), []string{"/list1.html", "/list2.html"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := eval.Score(res.Segmentation, site.Lists[0].Truth)
	if counts.Cor != len(site.Lists[0].Truth) {
		t.Errorf("harvest with broken ad link: %v", counts)
	}
}

// TestHarvestZeroOptionsIsProbabilistic pins the documented zero value:
// a Harvester without Options runs the probabilistic defaults, so the
// result carries mined column labels.
func TestHarvestZeroOptionsIsProbabilistic(t *testing.T) {
	site, err := sitegen.GenerateBySlug("butler", 42)
	if err != nil {
		t.Fatal(err)
	}
	h := &Harvester{Fetcher: MapFetcher(site.SiteMap())}
	res, err := h.Harvest(context.Background(), []string{"/list1.html", "/list2.html"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Segmentation.Method != core.Probabilistic {
		t.Errorf("zero Options ran %v, want probabilistic", res.Segmentation.Method)
	}
	if len(res.Segmentation.ColumnLabels) == 0 {
		t.Error("zero Options produced no column labels")
	}
}
