package core

// Exported to this directory's external tests, which may import the
// packages built on core: dist.CG joins the solver table there.
type BaseSolver = baseSolver

var BaseSolvers, TestSystem, TestConfig = baseSolvers, testSystem, testConfig
