// Package crawl implements the paper's §3 vision: "the user provides a
// pointer to the top-level page ... and the system automatically
// navigates the site, retrieving all pages, classifying them as list
// and detail pages, and extracting structured data from these pages."
//
// The harvester starts from the sampled list-page URLs, fetches every
// page they link to, separates the detail pages from advertisements and
// navigation with the structural classifier of §6.1, and runs the
// segmentation pipeline — producing records without any manual page
// selection. Fetching is abstracted behind a Fetcher so the same
// harvester walks an in-memory site, a directory on disk, or a live
// HTTP server.
package crawl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"tableseg/internal/classify"
	"tableseg/internal/core"
	"tableseg/internal/htmlx"
	"tableseg/internal/token"
)

// Fetcher retrieves the body of a page by URL.
type Fetcher interface {
	Fetch(pageURL string) (string, error)
}

// MapFetcher serves pages from an in-memory URL→HTML map (the shape
// sitegen.Site.SiteMap produces). Lookups fall back to the URL's path
// component so absolute and site-relative URLs both resolve.
type MapFetcher map[string]string

// Fetch implements Fetcher.
func (m MapFetcher) Fetch(pageURL string) (string, error) {
	if body, ok := m[pageURL]; ok {
		return body, nil
	}
	if u, err := url.Parse(pageURL); err == nil {
		if body, ok := m[u.Path]; ok {
			return body, nil
		}
	}
	return "", fmt.Errorf("crawl: page %q not found", pageURL)
}

// DirFetcher serves pages from files under a root directory; the URL's
// path (relative to "/") names the file. Path traversal outside the
// root is rejected.
type DirFetcher struct {
	Root string
}

// Fetch implements Fetcher.
func (d DirFetcher) Fetch(pageURL string) (string, error) {
	u, err := url.Parse(pageURL)
	if err != nil {
		return "", fmt.Errorf("crawl: bad url %q: %w", pageURL, err)
	}
	rel := strings.TrimPrefix(u.Path, "/")
	full := filepath.Join(d.Root, filepath.FromSlash(rel))
	clean, err := filepath.Abs(full)
	if err != nil {
		return "", err
	}
	rootAbs, err := filepath.Abs(d.Root)
	if err != nil {
		return "", err
	}
	if clean != rootAbs && !strings.HasPrefix(clean, rootAbs+string(filepath.Separator)) {
		return "", fmt.Errorf("crawl: %q escapes the root directory", pageURL)
	}
	body, err := os.ReadFile(clean)
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// HTTPFetcher fetches pages over HTTP with the given client (or
// http.DefaultClient when nil).
type HTTPFetcher struct {
	Client *http.Client
}

// Fetch implements Fetcher.
func (h HTTPFetcher) Fetch(pageURL string) (string, error) {
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(pageURL)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("crawl: GET %s: %s", pageURL, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// Links returns the href targets of a page's <a> elements, resolved
// against the page URL, in document order, deduplicated (first
// occurrence wins). Fragment-only and non-http(s)/relative schemes are
// skipped.
func Links(pageURL, html string) []string {
	base, err := url.Parse(pageURL)
	if err != nil {
		base = &url.URL{Path: "/"}
	}
	var out []string
	seen := map[string]bool{}
	for _, tok := range htmlx.Tokenize(html) {
		if tok.Kind != htmlx.StartTag || tok.Data != "a" {
			continue
		}
		href, ok := tok.Attr("href")
		if !ok || href == "" || strings.HasPrefix(href, "#") {
			continue
		}
		ref, err := url.Parse(href)
		if err != nil {
			continue
		}
		if ref.Scheme != "" && ref.Scheme != "http" && ref.Scheme != "https" {
			continue
		}
		resolved := base.ResolveReference(ref).String()
		if seen[resolved] {
			continue
		}
		seen[resolved] = true
		out = append(out, resolved)
	}
	return out
}

// Harvester walks a site and extracts its records. The root package
// re-exports it as tableseg.Harvester.
type Harvester struct {
	Fetcher Fetcher
	// Options configures the segmentation pipeline. The zero value
	// selects DefaultOptions(Probabilistic); a non-zero value with
	// MinSlotQuality 0 gets its method's default slot-quality
	// threshold.
	Options core.Options
	// ClassifyThreshold tunes detail-page clustering (0 = default).
	ClassifyThreshold float64
	// Concurrency bounds parallel fetches of the linked pages (0 = 8).
	// Fetch order does not affect results: pages keep link order.
	Concurrency int
}

// Result is the outcome of one harvested list page.
type Result struct {
	// Segmentation is the extracted table.
	Segmentation *core.Segmentation
	// ListURL is the harvested page.
	ListURL string
	// DetailURLs are the linked pages classified as detail pages, in
	// link order (record order).
	DetailURLs []string
	// RejectedURLs are linked pages classified as non-details.
	RejectedURLs []string
}

// errNoLinks is wrapped into the harvest error when a list page links
// to nothing.
var errNoLinks = errors.New("list page has no outgoing links")

// Harvest fetches the sampled list pages, follows every link from the
// target page, classifies the detail set, and segments the target.
func (h *Harvester) Harvest(ctx context.Context, listURLs []string, target int) (*Result, error) {
	if len(listURLs) == 0 {
		return nil, errors.New("crawl: no list page URLs")
	}
	if target < 0 || target >= len(listURLs) {
		return nil, fmt.Errorf("crawl: target %d out of range", target)
	}
	opts := h.Options
	if opts == (core.Options{}) {
		opts = core.DefaultOptions(core.Probabilistic)
	} else if opts.MinSlotQuality == 0 {
		opts.MinSlotQuality = core.DefaultOptions(opts.Method).MinSlotQuality
	}

	in := core.Input{Target: target}
	var listBodies []string
	for _, u := range listURLs {
		body, err := h.Fetcher.Fetch(u)
		if err != nil {
			return nil, fmt.Errorf("crawl: list page %s: %w", u, err)
		}
		listBodies = append(listBodies, body)
		in.ListPages = append(in.ListPages, core.Page{Name: u, HTML: body})
	}

	links := Links(listURLs[target], listBodies[target])
	if len(links) == 0 {
		return nil, fmt.Errorf("crawl: %s: %w", listURLs[target], errNoLinks)
	}
	// Fetch the linked pages concurrently; results keep link order
	// (record order depends on it). Broken links happen on real sites
	// and are skipped rather than aborting the harvest.
	fetched := make([]string, len(links))
	ok := make([]bool, len(links))
	workers := h.Concurrency
	if workers <= 0 {
		workers = 8
	}
	if workers > len(links) {
		workers = len(links)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for li := range next {
				if body, err := h.Fetcher.Fetch(links[li]); err == nil {
					fetched[li], ok[li] = body, true
				}
			}
		}()
	}
	for li := range links {
		next <- li
	}
	close(next)
	wg.Wait()

	var linked [][]token.Token
	var bodies []string
	var urls []string
	for li, u := range links {
		if !ok[li] {
			continue
		}
		urls = append(urls, u)
		bodies = append(bodies, fetched[li])
		linked = append(linked, token.Tokenize(fetched[li]))
	}
	if len(linked) == 0 {
		return nil, fmt.Errorf("crawl: %s: every outgoing link failed", listURLs[target])
	}

	res := &Result{ListURL: listURLs[target]}
	selected := classify.DetailPages(linked, h.ClassifyThreshold)
	inSel := map[int]bool{}
	for _, idx := range selected {
		inSel[idx] = true
		res.DetailURLs = append(res.DetailURLs, urls[idx])
		in.DetailPages = append(in.DetailPages, core.Page{Name: urls[idx], HTML: bodies[idx]})
	}
	for i, u := range urls {
		if !inSel[i] {
			res.RejectedURLs = append(res.RejectedURLs, u)
		}
	}

	seg, err := core.SegmentContext(ctx, in, opts)
	if err != nil {
		return nil, err
	}
	res.Segmentation = seg
	return res, nil
}
