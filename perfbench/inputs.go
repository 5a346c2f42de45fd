package main

import (
	"fmt"
	"math/rand"
	"strings"

	"tableseg/internal/core"
	"tableseg/internal/experiments"
	"tableseg/internal/sitegen"
)

// seedStride separates the generator seeds of one run's passes. Timed
// pass i uses seed+i*seedStride, so pass 0 of a run at seed 42 is the
// Table 4 corpus; warm-up set-up k uses seed-(k+1)*seedStride, a seed
// no timed pass of the run uses.
const seedStride = 7919

func passSeed(seed int64, pass int) int64    { return seed + int64(pass)*seedStride }
func warmupSeed(seed int64, k int) int64     { return seed - int64(k+1)*seedStride }
func shuffleSeed(seed int64, salt int) int64 { return seed*1_000_003 + int64(salt) }

// job is one segmentation input of a pass plus what the checks need.
type job struct {
	id    string
	in    core.Input
	truth []sitegen.TruthRecord
}

// corpusJobs builds the paper's corpus for one generator seed: Table
// 4's twelve sitegen profiles, each list page a job, at their own sizes.
func corpusJobs(genSeed int64) []job {
	var jobs []job
	for _, p := range sitegen.Profiles() {
		site := sitegen.Generate(p, genSeed)
		for page := range site.Lists {
			jobs = append(jobs, job{
				id:    fmt.Sprintf("%s-%d", p.Slug, page),
				in:    experiments.BuildInput(site, page),
				truth: site.Lists[page].Truth,
			})
		}
	}
	return jobs
}

// bulkyProfiles are clean sites, one per domain and layout: 20 records
// per list page and no pathology, so the front end rather than the
// solvers carries the cost.
func bulkyProfiles() []sitegen.Profile {
	var out []sitegen.Profile
	domains := []sitegen.Domain{sitegen.Books, sitegen.PropertyTax, sitegen.WhitePages, sitegen.Corrections}
	for _, d := range domains {
		for _, l := range []sitegen.Layout{sitegen.Grid, sitegen.FreeForm} {
			slug := fmt.Sprintf("bulky-%s-%s", d, l)
			out = append(out, sitegen.Profile{
				Name: "Bulky " + d.String() + " " + l.String(), Slug: slug,
				Domain: d, Layout: l, RecordsPerList: [2]int{20, 20},
			})
		}
	}
	return out
}

// boilerplateBytes is the page chrome wrapped around every bulky page:
// the size of the navigation, footer and inline script real list and
// detail pages carry around their content.
const boilerplateBytes = 20 << 10

// bulkyJobs builds the bulky-pages inputs for one generator seed: every
// page of a site, list and detail alike, is wrapped in that site's
// seeded boilerplate.
func bulkyJobs(genSeed int64) []job {
	var jobs []job
	for si, p := range bulkyProfiles() {
		site := sitegen.Generate(p, genSeed)
		head, tail := boilerplate(shuffleSeed(genSeed, si), boilerplateBytes)
		for li := range site.Lists {
			lp := &site.Lists[li]
			lp.HTML = wrapPage(lp.HTML, head, tail)
			for di := range lp.Details {
				lp.Details[di] = wrapPage(lp.Details[di], head, tail)
			}
		}
		for page := range site.Lists {
			// Truth offsets refer to the unwrapped page; bulky jobs are
			// checked against a serial run, not scored.
			jobs = append(jobs, job{id: fmt.Sprintf("%s-%d", p.Slug, page), in: experiments.BuildInput(site, page)})
		}
	}
	return jobs
}

// wrapPage puts head right after the page's <body> tag and tail right
// before its </body> tag.
func wrapPage(html, head, tail string) string {
	start := strings.Index(html, "<body>")
	end := strings.LastIndex(html, "</body>")
	if start < 0 || end < start {
		return head + html + tail
	}
	start += len("<body>")
	var b strings.Builder
	b.Grow(len(html) + len(head) + len(tail))
	b.WriteString(html[:start])
	b.WriteString(head)
	b.WriteString(html[start:end])
	b.WriteString(tail)
	b.WriteString(html[end:])
	return b.String()
}

// boilerplate renders a site's chrome from a seed: a navigation list
// before the content, a footer and an inline script after it, about
// size bytes together. Its words are made up from syllables, so they
// never collide with record values.
func boilerplate(seed int64, size int) (head, tail string) {
	rng := rand.New(rand.NewSource(seed))
	syllables := []string{"ka", "lo", "mi", "ren", "tas", "vo", "qui", "bel", "dor", "nu", "sar", "pe", "zin", "ox", "gra", "thu"}
	word := func() string {
		n := 3 + rng.Intn(3)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(syllables[rng.Intn(len(syllables))])
		}
		w := b.String()
		return strings.ToUpper(w[:1]) + w[1:]
	}
	var h strings.Builder
	h.WriteString("<div class=\"nav\"><ul>\n")
	for h.Len() < size/2 {
		a, b := word(), word()
		fmt.Fprintf(&h, "<li><a href=\"/%s/%s.html\">%s %s</a></li>\n", strings.ToLower(a), strings.ToLower(b), a, b)
	}
	h.WriteString("</ul></div>\n")

	var t strings.Builder
	t.WriteString("<div class=\"footer\">\n")
	for t.Len() < size*3/10 {
		t.WriteString("<p>")
		for i, n := 0, 8+rng.Intn(8); i < n; i++ {
			if i > 0 {
				t.WriteByte(' ')
			}
			t.WriteString(word())
		}
		t.WriteString("</p>\n")
	}
	t.WriteString("</div>\n<script type=\"text/javascript\">\n")
	for h.Len()+t.Len() < size {
		fmt.Fprintf(&t, "var cfg_%d = {\"%s\": \"%s\", \"slot\": %d, \"lazy\": %t};\n",
			rng.Intn(1_000_000), strings.ToLower(word()), strings.ToLower(word()), rng.Intn(10_000), rng.Intn(2) == 0)
	}
	t.WriteString("</script>\n")
	return h.String(), t.String()
}
