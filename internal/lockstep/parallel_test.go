package lockstep

import (
	"sync"
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/workload"
)

// TestConcurrentInjectMatchesSerial verifies the Golden immutability
// contract the parallel campaign driver relies on: many goroutines, each
// with its own Replayer, injecting against one shared Golden produce
// exactly the outcomes a serial loop produces. Run under -race this
// doubles as the data-race check for golden sharing.
func TestConcurrentInjectMatchesSerial(t *testing.T) {
	rep := NewReplayer()
	k := workload.ByName("puwmod")
	g, err := NewGolden(k, 4000, 500)
	if err != nil {
		t.Fatal(err)
	}

	var injs []Injection
	for flop := 0; flop < cpu.NumFlops(); flop += 97 {
		for kind := FaultKind(0); kind < NumFaultKinds; kind++ {
			injs = append(injs, Injection{Flop: flop, Kind: kind, Cycle: 100 + 37*flop%3500})
		}
	}

	serial := make([]Outcome, len(injs))
	for i, inj := range injs {
		serial[i] = rep.InjectMode(g, inj, Mode{}, StopLatency)
	}

	conc := make([]Outcome, len(injs))
	var wg sync.WaitGroup
	for i := range injs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conc[i] = NewReplayer().InjectMode(g, injs[i], Mode{}, StopLatency)
		}(i)
	}
	wg.Wait()

	for i := range injs {
		if serial[i] != conc[i] {
			t.Fatalf("injection %+v: serial outcome %+v != concurrent %+v",
				injs[i], serial[i], conc[i])
		}
	}
}
