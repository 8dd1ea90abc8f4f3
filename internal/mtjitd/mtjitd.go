// Package mtjitd is a source-compatibility shim. The single-process
// daemon is cluster.Worker with no store (see cmd/mtjitd); this package
// remains only because benchmark/micro.go, which a PR may not edit,
// builds its daemon probe through mtjitd.New(mtjitd.Config{...}). Do
// not add callers; use cluster.NewWorker.
package mtjitd

import "metajit/internal/cluster"

// Config is the run server's configuration.
type Config = cluster.WorkerConfig

// New builds a store-less worker with the simulator stack's telemetry
// installed, as a real daemon process has.
func New(cfg Config) *cluster.Worker {
	cfg.InstallStackTelemetry = true
	return cluster.NewWorker(cfg)
}
