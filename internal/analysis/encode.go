package analysis

import (
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
)

// This file renders diagnostics as SARIF 2.1.0, the machine-readable
// format cmd/tableseglint emits for CI code-scanning annotation. The
// encoder takes the already-sorted diagnostic slice, so its output is
// byte-stable for a given tree.

// SARIF 2.1.0 document skeleton — only the fields the format requires
// plus the ones GitHub code scanning consumes. The struct names follow
// the SARIF property names.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// EncodeSARIF renders diags as a SARIF 2.1.0 log with one run. The
// rules table lists every suite analyzer (not just the firing ones),
// so a clean run still documents what was checked; results reference
// rules by both id and index as the code-scanning ingesters expect.
func EncodeSARIF(diags []Diagnostic, analyzers []*Analyzer) ([]byte, error) {
	rules := make([]sarifRule, 0, len(analyzers))
	index := map[string]int{}
	for _, a := range analyzers {
		index[a.Name] = len(rules)
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}
	// Diagnostics from an analyzer outside the provided suite (possible
	// when a caller narrows the analyzer list) still need a rule entry.
	var extra []string
	for _, d := range diags {
		if _, ok := index[d.Analyzer]; !ok {
			index[d.Analyzer] = -1
			extra = append(extra, d.Analyzer)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		index[name] = len(rules)
		rules = append(rules, sarifRule{ID: name, ShortDescription: sarifMessage{Text: name}})
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: index[d.Analyzer],
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: sarifURI(d.Pos.Filename)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "tableseglint",
				InformationURI: "https://github.com/tableseg/tableseg",
				Rules:          rules,
			}},
			Results: results,
		}},
	}
	return json.MarshalIndent(log, "", "  ")
}

// sarifURI normalizes a reported filename to a slash-separated
// relative URI (SARIF artifactLocation wants URIs, and CI ingesters
// want them repo-relative).
func sarifURI(name string) string {
	u := filepath.ToSlash(name)
	u = strings.TrimPrefix(u, "./")
	return u
}
