package phmm

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"tableseg/internal/sitegen"
	"tableseg/internal/stage"
	"tableseg/internal/token"
)

// table4Case is the PHMM instance of one Table 4 list page.
type table4Case struct {
	name string
	inst Instance
}

// table4Instances returns the PHMM instances of the 24 Table 4 pages at
// a generator seed. It runs the stage functions as the pipeline does
// under core.DefaultOptions(Probabilistic), coverage retry included;
// pages the pipeline rejects before segmenting are left out.
func table4Instances(t testing.TB, seed int64) []table4Case {
	t.Helper()
	ctx := context.Background()
	var out []table4Case
	for _, prof := range sitegen.Profiles() {
		site := sitegen.Generate(prof, seed)
		for target := range site.Lists {
			var lists, details []stage.Page
			for _, l := range site.Lists {
				lists = append(lists, stage.Page{HTML: l.HTML})
			}
			for _, d := range site.Lists[target].Details {
				details = append(details, stage.Page{HTML: d})
			}
			toks, err := stage.Tokenize(ctx, stage.TokenizeIn{ListPages: lists, DetailPages: details})
			if err != nil {
				t.Fatal(err)
			}
			tpl, err := stage.InduceTemplate(ctx, stage.TemplateIn{Lists: toks.Lists})
			if err != nil {
				t.Fatal(err)
			}
			slot, err := stage.SelectSlot(ctx, stage.SlotIn{Template: tpl, Lists: toks.Lists, Target: target, MinSlotQuality: 0.5})
			if err != nil {
				continue
			}
			var others []stage.TokenizedPage
			others = append(others, toks.Lists[:target]...)
			others = append(others, toks.Lists[target+1:]...)
			observe := func(slot stage.Slot) (*stage.ObservationMatrix, error) {
				exs, err := stage.Extract(ctx, stage.ExtractIn{Target: toks.Lists[target], Slot: slot})
				if err != nil {
					return nil, err
				}
				return stage.Observe(ctx, stage.ObserveIn{Extracts: exs, Details: toks.Details, OtherLists: stage.TokensOf(others)})
			}
			m, err := observe(slot)
			if err == nil && !slot.WholePage && !m.Covered {
				m, err = observe(stage.Slot{Start: 0, End: len(toks.Lists[target].Tokens), WholePage: true})
			}
			if err != nil || len(m.Analyzed) == 0 {
				continue
			}
			p := stage.BuildProblem(m)
			out = append(out, table4Case{
				name: fmt.Sprintf("%s page %d (seed %d)", prof.Slug, target, seed),
				inst: Instance{NumRecords: p.NumRecords, Candidates: p.Candidates, TypeVecs: p.TypeVecs},
			})
		}
	}
	return out
}

// prunedAttempts segments inst with the pruned attempt in every pass.
// A pass whose certificate fails runs again unpruned, as in
// forwardBackward. It returns the passes made and how many failed.
func prunedAttempts(inst Instance, params Params) (passes, failed int, err error) {
	_, err = segmentWith(inst, params, false, func(lt *lattice) float64 {
		passes++
		ll, ok := lt.passes(pruneFloor)
		if !ok {
			failed++
			ll, _ = lt.passes(0)
		}
		return ll
	})
	return passes, failed, err
}

// TestPrunedPassCertifiedOnTable4: every pass of EM and of the
// confidence pass on the PHMM instances of the 24 Table 4 pages at
// generator seeds 42–45 keeps its pruned attempt.
func TestPrunedPassCertifiedOnTable4(t *testing.T) {
	total := 0
	for seed := int64(42); seed <= 45; seed++ {
		for _, tc := range table4Instances(t, seed) {
			passes, failed, err := prunedAttempts(tc.inst, DefaultParams())
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if failed > 0 {
				t.Errorf("%s: %d of %d passes failed the certificate", tc.name, failed, passes)
			}
			total += passes
		}
	}
	if total == 0 {
		t.Fatal("no passes ran")
	}
}

// TestPrunedPassFailsOnOverflow: on one record of 80 extracts in two
// columns, the backward messages overflow during EM (see
// TestSegmentOverflowedMessagesIsAnError). The pruned attempt must
// fail its certificate there, so the unpruned pass runs and the
// segmentation still reports errNoPath.
func TestPrunedPassFailsOnOverflow(t *testing.T) {
	var inst Instance
	inst.NumRecords = 1
	for i := 0; i < 80; i++ {
		inst.TypeVecs = append(inst.TypeVecs, typeVec(token.TypeOf("Solo")))
		inst.Candidates = append(inst.Candidates, []int{0})
	}
	p := DefaultParams()
	p.MaxColumns = 2
	passes, failed, err := prunedAttempts(inst, p)
	if failed == 0 {
		t.Errorf("all %d pruned attempts certified", passes)
	}
	if !errors.Is(err, errNoPath) {
		t.Errorf("got %v, want errNoPath", err)
	}
}
