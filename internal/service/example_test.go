package service_test

import (
	"context"
	"fmt"
	"net/http/httptest"

	"seqbist/internal/service"
)

// ExampleClient_RunSweep is the whole batch-client path in one screen:
// stand up a daemon, submit a sweep mixing a registry circuit with an
// uploaded .bench netlist, follow the event stream, and read the
// aggregated summary. Against a real deployment only the BaseURL changes.
func ExampleClient_RunSweep() {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()

	cl := &service.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	fin, err := cl.RunSweep(context.Background(), service.SweepSpec{
		Circuits: []service.CircuitRef{
			{Circuit: "s27"},
			{Bench: "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nff = DFF(z)\nz = NAND(a, g)\ng = OR(b, ff)\n"},
		},
		Config: service.GenConfig{N: 2, Seed: 1, ATPGMaxLen: 200, MaxOmissionTrials: 50},
	}, func(ev service.SweepEvent) error {
		if ev.Type == "member_update" && ev.Member.State == service.StateDone {
			r := ev.Member.Result
			fmt.Printf("%s: coverage %.2f, stores %d of %d T0 vectors\n",
				r.Circuit, r.Coverage, r.TotalLen, r.T0Len)
		}
		return nil
	})
	if err != nil {
		fmt.Println("sweep failed:", err)
		return
	}
	fmt.Printf("sweep %s: %d/%d done\n", fin.State, fin.Summary.Done, fin.Summary.Total)
	// Output:
	// s27: coverage 1.00, stores 2 of 19 T0 vectors
	// upload: coverage 1.00, stores 2 of 7 T0 vectors
	// sweep done: 2/2 done
}
