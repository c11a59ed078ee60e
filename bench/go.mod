// The benchmark is a module of its own so that the root module's
// `./...` (build, test, vet, pplint) never sweeps it; the path prefix
// predplace/ keeps the engine's internal packages importable.
module predplace/bench

go 1.22

require predplace v0.0.0

replace predplace => ../
