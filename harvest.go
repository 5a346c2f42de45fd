package tableseg

import (
	"tableseg/internal/crawl"
	"tableseg/internal/relation"
)

// The crawling layer (§3's automation vision) re-exported: point a
// Harvester at a site and it discovers result pages via Next links,
// fetches everything they link to, classifies the detail pages away
// from advertisements, and segments the records.
//
//	h := &tableseg.Harvester{Fetcher: tableseg.HTTPFetcher{}}
//	res, err := h.HarvestFrom(ctx, "https://example.test/results?page=1")
//	table, _, err := h.HarvestAll(ctx, "https://example.test/results?page=1")

// Fetcher retrieves a page body by URL.
type Fetcher = crawl.Fetcher

// MapFetcher serves pages from an in-memory URL→HTML map.
type MapFetcher = crawl.MapFetcher

// DirFetcher serves pages from files under a root directory.
type DirFetcher = crawl.DirFetcher

// HTTPFetcher fetches pages over HTTP.
type HTTPFetcher = crawl.HTTPFetcher

// Harvester walks a site and extracts its records. Its fields are the
// Fetcher, the pipeline Options (zero value: the probabilistic
// defaults), ClassifyThreshold for detail-page clustering (0 =
// default) and Concurrency for parallel fetches (0 = 8). Its methods
// Harvest, HarvestFrom and HarvestAll take a context: cancellation
// aborts the segmentation solve and surfaces as ctx.Err().
type Harvester = crawl.Harvester

// HarvestResult is the outcome of harvesting one list page.
type HarvestResult = crawl.Result

// RelationTable is an assembled cross-page relation.
type RelationTable = relation.Table

// MergeRelation merges per-page segmentations into the site's
// deduplicated relation (§6.3's "reconstruct the relational database
// behind the Web site").
func MergeRelation(segs []*Segmentation) *RelationTable {
	return relation.Merge(segs)
}

// Links extracts the href targets of a page's anchors, resolved against
// the page URL, in document order.
func Links(pageURL, html string) []string {
	return crawl.Links(pageURL, html)
}

// DiscoverListPages follows Next links from an entry page to collect a
// site's sample list pages (§6.3's heuristic).
func DiscoverListPages(f Fetcher, entryURL string, maxPages int) ([]string, []string, error) {
	return crawl.DiscoverListPages(f, entryURL, maxPages)
}
