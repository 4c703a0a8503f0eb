// Package twitch implements the paper's real-world workload: a seven-
// operator pipeline over Twitch viewing events that "analyzes viewer
// engagement patterns to compute loyalty scores" (Section V-A).
//
// The original dataset (Rappaz et al., RecSys'21: 100k users, ~6M viewing
// events; the paper uses a one-fifth subset of ~4M events compressed into a
// 1000-second window) is not redistributable, so this package ships a seeded
// synthetic trace generator preserving the properties the evaluation
// exploits: Zipf-skewed streamer popularity, per-user session structure, and
// continuous arrival that accumulates state naturally (~500 MB at scaling
// time in the paper). EXPERIMENTS.md records the down-scaling.
//
// Pipeline (7 operators):
//
//	events → parse → sessions(keyed by user) → engage → loyalty(keyed by
//	user, the scaling operator) → top → sink
package twitch

import (
	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// Config parameterizes the pipeline and trace.
type Config struct {
	// RatePerSec is events/second per source instance.
	RatePerSec float64
	// Users and Streamers size the trace's entity spaces.
	Users     int
	Streamers int
	// SourceParallelism sets the source's parallelism.
	SourceParallelism int
	// LoyaltyParallelism is the scaling operator's initial parallelism
	// (paper: 8).
	LoyaltyParallelism int
	// SessionParallelism sets the session aggregator's parallelism.
	SessionParallelism int
	// MaxKeyGroups is the keyed operators' key-group count (paper: 128).
	MaxKeyGroups int
	// LoyaltyCost is the loyalty (scaling) operator's processing cost;
	// defaults to sessionCost.
	LoyaltyCost simtime.Duration
	// Duration bounds generation (0 = endless).
	Duration simtime.Duration
	// Seed drives the trace.
	Seed int64
}

const (
	// streamerSkew is the Zipf skew of streamer popularity (real Twitch
	// viewing is heavily concentrated).
	streamerSkew = 1.1
	// sessionBytes and loyaltyBytes size per-user state.
	sessionBytes = 256
	loyaltyBytes = 512
	// sessionCost is the session aggregator's processing cost.
	sessionCost = 60 * simtime.Microsecond
)

func (c *Config) fillDefaults() {
	if c.RatePerSec == 0 {
		c.RatePerSec = 2000
	}
	if c.Users == 0 {
		c.Users = 5000
	}
	if c.Streamers == 0 {
		c.Streamers = 500
	}
	if c.SourceParallelism == 0 {
		c.SourceParallelism = 2
	}
	if c.LoyaltyParallelism == 0 {
		c.LoyaltyParallelism = 8
	}
	if c.SessionParallelism == 0 {
		c.SessionParallelism = 4
	}
	if c.MaxKeyGroups == 0 {
		c.MaxKeyGroups = 128
	}
	if c.LoyaltyCost == 0 {
		c.LoyaltyCost = sessionCost
	}
}

// ScalingOperator names the operator the paper rescales in this workload.
const ScalingOperator = "loyalty"

// Build constructs the seven-operator pipeline and returns the graph plus
// the sink for inspection.
func Build(cfg Config) (*dataflow.Graph, *engine.CollectSink) {
	cfg.fillDefaults()
	sink := engine.NewCollectSink()
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name:        "events",
		Parallelism: cfg.SourceParallelism,
		Source:      traceSource(cfg),
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name:          "parse",
		Parallelism:   2,
		CostPerRecord: 10 * simtime.Microsecond,
		NewLogic: func() dataflow.Logic {
			return &engine.MapLogic{} // identity decode; cost models parsing
		},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name:          "sessions",
		Parallelism:   cfg.SessionParallelism,
		KeyedInput:    true,
		MaxKeyGroups:  cfg.MaxKeyGroups,
		CostPerRecord: sessionCost,
		CostJitter:    0.1,
		NewLogic: func() dataflow.Logic {
			// The trace source carries minutes-watched in the typed Value
			// lane, so the default sum reduce is exactly "accumulate watch
			// time" — no payload unboxing on the hot path.
			return &engine.KeyedReduceLogic{
				StateBytes:  sessionBytes,
				EmitUpdates: true,
			}
		},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name:          "engage",
		Parallelism:   2,
		CostPerRecord: 15 * simtime.Microsecond,
		NewLogic: func() dataflow.Logic {
			return &engine.MapLogic{Fn: func(r *netsim.Record) *netsim.Record {
				// Engagement score: diminishing returns on watch time.
				if v := r.Value; v > 0 {
					r.Value = 1 + v/(v+30)
				}
				return r
			}}
		},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name:          ScalingOperator,
		Parallelism:   cfg.LoyaltyParallelism,
		KeyedInput:    true,
		MaxKeyGroups:  cfg.MaxKeyGroups,
		CostPerRecord: cfg.LoyaltyCost,
		CostJitter:    0.1,
		NewLogic: func() dataflow.Logic {
			return &engine.KeyedReduceLogic{
				StateBytes:  loyaltyBytes,
				EmitUpdates: true,
			}
		},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name:          "top",
		Parallelism:   1,
		CostPerRecord: 5 * simtime.Microsecond,
		NewLogic: func() dataflow.Logic {
			return &engine.MapLogic{Fn: func(r *netsim.Record) *netsim.Record {
				// Forward only substantial loyalty updates (top-score feed).
				if r.Value < 5 {
					return nil
				}
				return r
			}}
		},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name:        "sink",
		Parallelism: 1,
		NewLogic:    func() dataflow.Logic { return sink },
	})
	g.Connect("events", "parse", dataflow.ExchangeRebalance)
	g.Connect("parse", "sessions", dataflow.ExchangeKeyed)
	g.Connect("sessions", "engage", dataflow.ExchangeRebalance)
	g.Connect("engage", ScalingOperator, dataflow.ExchangeKeyed)
	g.Connect(ScalingOperator, "top", dataflow.ExchangeRebalance)
	g.Connect("top", "sink", dataflow.ExchangeRebalance)
	return g, sink
}

// traceSource generates the synthetic viewing trace: users arrive in
// sessions, streamer choice is Zipf-skewed, and watch intervals vary. The
// run's source instances share its two Zipf tables, built here with the
// graph.
func traceSource(cfg Config) dataflow.SourceFunc {
	users := simtime.NewZipfTable(cfg.Users, 0.6)
	streams := simtime.NewZipfTable(cfg.Streamers, streamerSkew)
	return func(ctx dataflow.SourceContext) {
		rng := simtime.NewRNG(cfg.Seed, "twitch/trace")
		userZipf := simtime.NewZipfFrom(simtime.NewRNG(cfg.Seed, "twitch/users"), users)
		streamZipf := simtime.NewZipfFrom(simtime.NewRNG(cfg.Seed, "twitch/streams"), streams)
		period := simtime.Duration(float64(simtime.Second) / cfg.RatePerSec)
		start := ctx.Now()
		var nextWM simtime.Time
		// Session affinity: a fraction of events continue the previous
		// user's session, mimicking the dataset's repeat-consumption
		// structure.
		var lastUser uint64
		var sessionLeft int
		var tick func()
		tick = func() {
			now := ctx.Now()
			if cfg.Duration > 0 && now >= start.Add(cfg.Duration) {
				ctx.EmitWatermark(now)
				return
			}
			var user uint64
			if sessionLeft > 0 && lastUser != 0 {
				user = lastUser
				sessionLeft--
			} else {
				user = uint64(userZipf.Next()) + 1
				lastUser = user
				sessionLeft = rng.IntN(6)
			}
			// The event is a (user, streamer, minutes) view; only the minutes
			// feed downstream computation, so they travel unboxed in the
			// Value lane. The streamer draw stays to keep the RNG sequence
			// (and thus the whole trace) identical to the boxed encoding.
			_ = streamZipf.Next()
			r := ctx.NewRecord()
			r.Key = user
			r.EventTime = now
			r.Size = 140
			r.Value = 5 + float64(rng.Float64()*55)
			ctx.Ingest(r)
			if now >= nextWM {
				ctx.EmitWatermark(now)
				nextWM = now.Add(simtime.Ms(100))
			}
			ctx.After(rng.Jitter(period, 0.1), tick)
		}
		tick()
	}
}
