package core

import (
	"errors"
	"testing"
	"time"
)

// FuzzRace drives the race over seed-derived problems from every random
// family: each outcome must be either a verifier-clean schedule or a
// classified give-up. An invalid schedule or an unclassified error is a
// backend bug (soundness is what lets the race trust an anneal win).
func FuzzRace(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 60802, -3, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, fam := range problemFamilies {
			n, p := fam.gen(t, seed)
			p.Opts.Backend = BackendRace
			p.Opts.Timeout = 2 * time.Second
			res, err := Schedule(p)
			if err != nil {
				if !errors.Is(err, ErrInfeasible) && !errors.Is(err, ErrBudget) && !errors.Is(err, ErrInvalidProblem) {
					t.Fatalf("%s seed %d: unclassified error %v", fam.name, seed, err)
				}
				continue
			}
			if vs := Verify(n, res); len(vs) != 0 {
				t.Fatalf("%s seed %d: race shipped %d violations, first: %s", fam.name, seed, len(vs), vs[0])
			}
		}
	})
}
