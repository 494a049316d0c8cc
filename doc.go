// Package repro reproduces "Collective Computing for Scientific Big Data
// Analysis" (Liu, Chen, Byna — ICPP 2015) as a self-contained Go library.
//
// The paper fuses a mapreduce-style computation into ROMIO's two-phase
// collective I/O: the analysis runs on each aggregator's collective buffer
// between the read phase and the shuffle phase, so the shuffle moves small
// partial results instead of raw data. Everything the paper depends on — an
// MPI-like runtime, a Lustre-like striped file system, the two-phase
// collective I/O protocol, a PnetCDF-like layer of typed N-d variables, and
// the collective-computing runtime itself — is implemented from scratch on a
// deterministic discrete-event simulation, with real data flowing through
// real Go code.
//
// Start with README.md, the runnable examples under examples/, and the
// experiment CLI:
//
//	go run ./cmd/ccexp all
//
// The benchmarks in this package regenerate every table and figure of the
// paper's evaluation in miniature; cmd/ccexp runs them at larger scales.
package repro
