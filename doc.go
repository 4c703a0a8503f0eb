// Package drrs is a from-scratch Go reproduction of "Towards Fine-Grained
// Scalability for Stateful Stream Processing Systems" (Qing & Zheng, ICDE
// 2025): the DRRS on-the-fly rescaling mechanism — Decoupling & Re-routing,
// Record Scheduling, and Subscale Division — together with the entire
// substrate it needs (a deterministic discrete-event stream-processing
// engine modelled on Apache Flink), every baseline the paper compares
// against (generalized OTFS, Megaphone, Meces, Stop-Checkpoint-Restart, and
// the Unbound diagnostic), the three evaluation workloads (NEXMark Q7/Q8,
// a synthetic Twitch loyalty pipeline, and the configurable custom job), and
// a benchmark harness that regenerates every figure and table of the paper's
// evaluation.
//
// Layout:
//
//	internal/core       DRRS itself (the paper's contribution)
//	internal/engine     the simulated stream processing engine
//	internal/scaling    the mechanism framework and the baselines
//	internal/bench      the figure/table regeneration harness, with checked
//	                    walkthroughs (go test -run Example ./internal/bench)
//	cmd/drrs-bench      run many simulations: the paper's figures, sweeps, chaos and policy search
//	cmd/drrs-sim        run one simulation: a report, a trace recording, or a counterfactual diff
//
// See README.md for a quickstart, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results.
package drrs
