# Convenience targets for the MASC reproduction.

GO ?= go
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS = -X github.com/masc-project/masc/internal/version.Version=$(VERSION)

.PHONY: all build test race bench experiments examples lint cover

all: test

# Builds version-stamped binaries into ./bin (mascd -version and
# /api/v1/healthz report it).
build:
	$(GO) build -ldflags '$(LDFLAGS)' -o bin/ ./cmd/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem ./...

# Regenerates every table/figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/scmbench -all
	$(GO) run ./cmd/stocktrade

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stocktrading
	$(GO) run ./examples/supplychain
	$(GO) run ./examples/brokervep
	$(GO) run ./examples/processhost

lint:
	$(GO) vet ./...
	gofmt -l . && test -z "$$(gofmt -l .)"

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1
