// Package nexmark implements the NEXMark benchmark pieces the paper
// evaluates on (Section V-A): the auction-system event generator and the Q7
// and Q8 query pipelines, with the paper's substitution of sliding windows
// for tumbling ones ("the latter can introduce significant instability in
// scaling performance").
//
//   - Q7 (highest bid): a high-rate bid stream into a sliding-window max
//     keyed by auction. The paper runs 20K tps with a 10 s window sliding
//     every 500 ms, accumulating ~800 MB of window state.
//   - Q8 (new users joining auctions): persons ⋈ auctions over a sliding
//     window keyed by person/seller id. The paper runs 1K tps with a 40 s
//     window sliding every 5 s, accumulating ~3 GB.
//
// Configs default to scaled-down rates and windows so simulations stay fast;
// EXPERIMENTS.md documents the scaling factors.
package nexmark

import (
	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/simtime"
)

// PersonEvt is a NEXMark person registration.
type PersonEvt struct {
	Person uint64
}

// AuctionEvt is a NEXMark auction opening.
type AuctionEvt struct {
	Auction uint64
	Seller  uint64
}

// Q7Config parameterizes the Q7 pipeline.
type Q7Config struct {
	// RatePerSec is bids/second per source instance (paper: 20K total).
	RatePerSec float64
	// SourceParallelism and WindowParallelism set initial parallelism
	// (paper: windows at 8, scaled to 12).
	SourceParallelism int
	WindowParallelism int
	// MaxKeyGroups is the window operator's key-group count (paper: 128).
	MaxKeyGroups int
	// Auctions is the hot-auction pool size (key space).
	Auctions int
	// WindowSize and Slide follow the paper's Q7 shape (10 s / 500 ms),
	// scaled down by default.
	WindowSize simtime.Duration
	Slide      simtime.Duration
	// BytesPerEntry sizes window state per buffered bid.
	BytesPerEntry int
	// CostPerRecord is the window operator's processing cost.
	CostPerRecord simtime.Duration
	// Duration bounds generation (0 = endless).
	Duration simtime.Duration
	// Seed drives the generator.
	Seed int64
}

func (c *Q7Config) fillDefaults() {
	if c.RatePerSec == 0 {
		c.RatePerSec = 2000
	}
	if c.SourceParallelism == 0 {
		c.SourceParallelism = 2
	}
	if c.WindowParallelism == 0 {
		c.WindowParallelism = 8
	}
	if c.MaxKeyGroups == 0 {
		c.MaxKeyGroups = 128
	}
	if c.Auctions == 0 {
		c.Auctions = 2000
	}
	if c.WindowSize == 0 {
		c.WindowSize = simtime.Sec(2)
	}
	if c.Slide == 0 {
		c.Slide = simtime.Ms(100)
	}
	if c.BytesPerEntry == 0 {
		c.BytesPerEntry = 48
	}
	if c.CostPerRecord == 0 {
		c.CostPerRecord = 60 * simtime.Microsecond
	}
}

// BuildQ7 constructs the Q7 job: "bids" → "winmax" (scaling operator) →
// "sink". It returns the graph and the sink for inspection.
func BuildQ7(cfg Q7Config) (*dataflow.Graph, *engine.CollectSink) {
	cfg.fillDefaults()
	sink := engine.NewCollectSink()
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name:        "bids",
		Parallelism: cfg.SourceParallelism,
		Source:      bidSource(cfg),
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name:          "winmax",
		Parallelism:   cfg.WindowParallelism,
		KeyedInput:    true,
		MaxKeyGroups:  cfg.MaxKeyGroups,
		CostPerRecord: cfg.CostPerRecord,
		CostJitter:    0.1,
		NewLogic: func() dataflow.Logic {
			return &engine.SlidingWindowLogic{
				Size:          cfg.WindowSize,
				Slide:         cfg.Slide,
				BytesPerEntry: cfg.BytesPerEntry,
			}
		},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name:        "sink",
		Parallelism: 1,
		NewLogic:    func() dataflow.Logic { return sink },
	})
	g.Connect("bids", "winmax", dataflow.ExchangeKeyed)
	g.Connect("winmax", "sink", dataflow.ExchangeRebalance)
	return g, sink
}

// bidSource generates Q7's bids. Hot auctions follow NEXMark's skewed
// popularity, from one Zipf table the run's source instances share.
func bidSource(cfg Q7Config) dataflow.SourceFunc {
	auctions := simtime.NewZipfTable(cfg.Auctions, 0.8)
	return func(ctx dataflow.SourceContext) {
		rng := simtime.NewRNG(cfg.Seed, "nexmark/bids")
		zipf := simtime.NewZipfFrom(simtime.NewRNG(cfg.Seed, "nexmark/auctions"), auctions)
		period := simtime.Duration(float64(simtime.Second) / cfg.RatePerSec)
		start := ctx.Now()
		var nextWM simtime.Time
		var tick func()
		tick = func() {
			now := ctx.Now()
			if cfg.Duration > 0 && now >= start.Add(cfg.Duration) {
				ctx.EmitWatermark(now)
				return
			}
			// A bid (auction, bidder, price) travels in the typed record
			// fields (Key = auction, Value = price); the bidder draw stays so the generator's RNG
			// sequence is unchanged by the unboxed encoding.
			auction := uint64(zipf.Next()) + 1
			_ = uint64(rng.IntN(100000)) // bidder id
			r := ctx.NewRecord()
			r.Key = auction
			r.EventTime = now
			r.Size = 120
			r.Value = 10 + float64(rng.Float64()*990)
			ctx.Ingest(r)
			if now >= nextWM {
				ctx.EmitWatermark(now - simtime.Time(simtime.Ms(1)))
				nextWM = now.Add(simtime.Ms(50))
			}
			ctx.After(rng.Jitter(period, 0.05), tick)
		}
		tick()
	}
}

// Q8Config parameterizes the Q8 pipeline.
type Q8Config struct {
	// PersonsPerSec and AuctionsPerSec set the two stream rates
	// (paper: 1K tps combined).
	PersonsPerSec  float64
	AuctionsPerSec float64
	// JoinParallelism is the join operator's initial parallelism (paper: 8).
	JoinParallelism int
	// MaxKeyGroups is the join operator's key-group count (paper: 128).
	MaxKeyGroups int
	// People is the person-id space (join key space).
	People int
	// WindowSize and Slide follow the paper's Q8 shape (40 s / 5 s), scaled
	// down by default.
	WindowSize simtime.Duration
	Slide      simtime.Duration
	// BytesPerEntry sizes join-buffer state per event (paper Q8 carries
	// ~3 GB, the largest state in the evaluation).
	BytesPerEntry int
	// CostPerRecord is the join operator's processing cost.
	CostPerRecord simtime.Duration
	// Duration bounds generation (0 = endless).
	Duration simtime.Duration
	// Seed drives the generators.
	Seed int64
}

func (c *Q8Config) fillDefaults() {
	if c.PersonsPerSec == 0 {
		c.PersonsPerSec = 400
	}
	if c.AuctionsPerSec == 0 {
		c.AuctionsPerSec = 600
	}
	if c.JoinParallelism == 0 {
		c.JoinParallelism = 8
	}
	if c.MaxKeyGroups == 0 {
		c.MaxKeyGroups = 128
	}
	if c.People == 0 {
		c.People = 3000
	}
	if c.WindowSize == 0 {
		c.WindowSize = simtime.Sec(8)
	}
	if c.Slide == 0 {
		c.Slide = simtime.Sec(1)
	}
	if c.BytesPerEntry == 0 {
		c.BytesPerEntry = 200
	}
	if c.CostPerRecord == 0 {
		c.CostPerRecord = 80 * simtime.Microsecond
	}
}

// BuildQ8 constructs the Q8 job: "persons" + "auctions" → "join" (scaling
// operator) → "sink".
func BuildQ8(cfg Q8Config) (*dataflow.Graph, *engine.CollectSink) {
	cfg.fillDefaults()
	sink := engine.NewCollectSink()
	// Both sides draw person ids from one distribution: one table per run.
	people := simtime.NewZipfTable(cfg.People, 0.5)
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name:        "persons",
		Parallelism: 1,
		Source:      q8Source(cfg, people, true, cfg.PersonsPerSec, "persons"),
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name:        "auctions",
		Parallelism: 1,
		Source:      q8Source(cfg, people, false, cfg.AuctionsPerSec, "auctions"),
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name:          "join",
		Parallelism:   cfg.JoinParallelism,
		KeyedInput:    true,
		MaxKeyGroups:  cfg.MaxKeyGroups,
		CostPerRecord: cfg.CostPerRecord,
		CostJitter:    0.1,
		NewLogic: func() dataflow.Logic {
			return &engine.WindowJoinLogic{
				Size:          cfg.WindowSize,
				Slide:         cfg.Slide,
				BytesPerEntry: cfg.BytesPerEntry,
			}
		},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name:        "sink",
		Parallelism: 1,
		NewLogic:    func() dataflow.Logic { return sink },
	})
	g.Connect("persons", "join", dataflow.ExchangeKeyed)
	g.Connect("auctions", "join", dataflow.ExchangeKeyed)
	g.Connect("join", "sink", dataflow.ExchangeRebalance)
	return g, sink
}

func q8Source(cfg Q8Config, people *simtime.ZipfTable, left bool, rate float64, name string) dataflow.SourceFunc {
	return func(ctx dataflow.SourceContext) {
		rng := simtime.NewRNG(cfg.Seed, "nexmark/"+name)
		zipf := simtime.NewZipfFrom(simtime.NewRNG(cfg.Seed, "nexmark/zipf/"+name), people)
		period := simtime.Duration(float64(simtime.Second) / rate)
		start := ctx.Now()
		// Join inputs are two-sided, the one payload shape that does not
		// fit the float64 fast lane; they ride the Aux escape hatch. Every
		// record of a side carries the same tag, so it is boxed once here
		// and shared: the join only reads it.
		var side any = engine.JoinSide{Left: left, Value: 1}
		var nextWM simtime.Time
		var tick func()
		tick = func() {
			now := ctx.Now()
			if cfg.Duration > 0 && now >= start.Add(cfg.Duration) {
				ctx.EmitWatermark(now)
				return
			}
			person := uint64(zipf.Next()) + 1
			if left {
				_ = PersonEvt{Person: person}
			} else {
				_ = AuctionEvt{Auction: uint64(rng.IntN(1 << 20)), Seller: person}
			}
			r := ctx.NewRecord()
			r.Key = person
			r.EventTime = now
			r.Size = 150
			r.Aux = side
			ctx.Ingest(r)
			if now >= nextWM {
				ctx.EmitWatermark(now - simtime.Time(simtime.Ms(1)))
				nextWM = now.Add(simtime.Ms(100))
			}
			ctx.After(rng.Jitter(period, 0.05), tick)
		}
		tick()
	}
}
