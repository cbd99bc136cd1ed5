package service

import (
	"encoding/json"
	"testing"

	"seqbist/internal/iscas"
	"seqbist/internal/strategy"
)

// FuzzValidateSpec drives the submission edge's shape checks with
// arbitrary bytes decoded as a JobSpec — the body every POST /v1/jobs
// carries. ValidateSpec must never panic; a spec it accepts must have a
// content key that ignores the deprecated lanes field (setting it to 0
// leaves the key unchanged, so a stored or resubmitted "lanes" never
// fragments the cache); and the lanes values it rejects are exactly the
// ones it has always rejected (negative, or not a multiple of 64).
func FuzzValidateSpec(f *testing.F) {
	for _, lanes := range []int{0, 64, 128, 256, 100, -64} {
		spec, _ := json.Marshal(JobSpec{Circuit: "s27", Config: GenConfig{N: 2, Lanes: lanes}})
		f.Add(spec)
	}
	for _, name := range append(strategy.Names(), "nope") {
		spec, _ := json.Marshal(JobSpec{Circuit: "s298", Config: GenConfig{Strategy: name, Seed: 7}})
		f.Add(spec)
	}
	f.Add([]byte(`{"bench":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","t0":"0 1 1","config":{"lanes":192,"parallelism":3}}`))
	f.Add([]byte(`{"circuit":"s27","bench":"INPUT(a)","config":{}}`))
	f.Add([]byte(`{"circuit":"s27","config":{"n":-1,"atpg_max_len":-5}}`))
	f.Add([]byte(`{"circuit":"s27","config":{"lanes":"wide"}}`))
	f.Add([]byte(`{"circuit":"s27","config":{"lanes":64`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	c := iscas.S27()
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		err := ValidateSpec(spec)
		lanes := spec.Config.Lanes
		if badLanes := lanes < 0 || lanes%64 != 0; badLanes && err == nil {
			t.Fatalf("lanes %d accepted", lanes)
		}
		if err != nil {
			return
		}
		cfg := spec.Config.withDefaults(0)
		key := contentKey(c, spec.T0, cfg)
		cfg.Lanes = 0
		if got := contentKey(c, spec.T0, cfg); got != key {
			t.Fatalf("lanes %d changes the content key: %s vs %s", lanes, key, got)
		}
	})
}
