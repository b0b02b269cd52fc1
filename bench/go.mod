// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` neither builds nor runs it; the module
// path keeps the `speccat/` prefix, which is what lets it import the
// layers under speccat/internal that it measures.
module speccat/bench

go 1.22

require speccat v0.0.0

replace speccat => ../
