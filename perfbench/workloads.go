package main

import (
	"runtime"

	"lockstep/internal/inject"
	"lockstep/internal/lockstep"
)

// Every workload runs the system's whole pipeline — a fault-injection
// campaign, a table trained from its dataset by POST /v1/tables, and a
// closed predict loop against that table — in two stages, each in its own
// process. The workload's primary stage gets most of the run and defines
// setup_s and peak_rss_mb; the other stage still reports its end-to-end
// metrics, so every workload prints all of them.
type workloadSpec struct {
	name     string
	campaign campaignSpec
	batch    int // DSRs per predict request
	primary  string
	// heldOut is a seed not used while a change is tuned; a claimed gain
	// must also hold on it.
	heldOut int64
}

const (
	stageCampaign = "campaign"
	stageServe    = "serve"
)

// campaignSpec is the campaign half of a workload. Its seed comes from the
// workload seed (see campaignSeed).
type campaignSpec struct {
	pin     string // key into pinned
	kernels []string
	mode    lockstep.Mode
	stride  int
	// checkpointEvery, when set, makes the campaign checkpoint to a
	// scratch file every that many experiments.
	checkpointEvery int
}

// horizon is the golden-run length of every campaign, in cycles.
const horizon = 6000

// referenceKernels are the ROADMAP's reference campaign kernels.
var referenceKernels = []string{"ttsprk", "rspeed", "puwmod"}

var dclsCampaign = campaignSpec{pin: "dcls", kernels: referenceKernels, stride: 1}

var workloads = []workloadSpec{
	{name: "campaign-dcls", campaign: dclsCampaign, batch: 1, primary: stageCampaign, heldOut: 50},
	{name: "campaign-tmr-ckpt", campaign: campaignSpec{
		pin: "tmr", mode: lockstep.Mode{Kind: lockstep.ModeTMR}, stride: 4,
		// Five checkpoints before the final one.
		checkpointEvery: 4096,
	}, batch: 1, primary: stageCampaign, heldOut: 51},
	{name: "serve-single", campaign: dclsCampaign, batch: 1, primary: stageServe, heldOut: 52},
	{name: "serve-batch", campaign: dclsCampaign, batch: 256, primary: stageServe, heldOut: 53},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// pinnedSeeds is the size of the campaign seed space: the workload seed is
// taken modulo it, so every campaign a run makes has its dataset digest
// and outcome counts pinned in pinned.
const pinnedSeeds = 64

func campaignSeed(seed int64) int64 {
	return (seed%pinnedSeeds + pinnedSeeds) % pinnedSeeds
}

// config is the campaign's inject.Config for a workload seed, with one
// experiment worker per CPU.
func (c campaignSpec) config(seed int64) inject.Config {
	return inject.Config{
		Kernels:    c.kernels,
		RunCycles:  horizon,
		FlopStride: c.stride,
		Seed:       campaignSeed(seed),
		Mode:       c.mode,
		Workers:    runtime.NumCPU(),
	}
}

// pin is what a campaign must reproduce for one seed, computed on the
// commit that introduced the benchmark.
type pin struct {
	digest string // SHA-256 of the dataset CSV
	counts outcomeCounts
}
