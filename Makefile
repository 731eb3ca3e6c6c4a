# Repro of "Log Visualization Tool for Message-Passing Programming in
# Pilot". `make ci` is the tier-1 gate: build, vet, the full test suite
# under the race detector, and both call-site paths (loc-paths).

GO ?= go

.PHONY: all build fmt vet test test-bench race loc-paths ci cover lines bench bench-smoke fuzz fuzz-smoke smoke-multiproc smoke-serve smoke-index smoke-analyze chaos chaos-wire unreached clean

all: ci

build:
	$(GO) build ./...

# Every tracked Go file is gofmt-clean.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark under bench/ is a module of its own (BENCHMARK.json runs
# it through bench/run.sh), so ./... above never compiles it; vet and
# test it here so it cannot rot (~15 s: every workload, both passes, at
# tiny scale).
test-bench:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# A Pilot call's source line comes off the frame-pointer chain on amd64
# and through runtime.Callers on every other GOARCH. Vet and build the
# other path so it cannot rot, and run the call-shape tests with inlining
# off as well (the chain counts physical frames).
loc-paths:
	GOARCH=arm64 $(GO) vet ./internal/core
	GOARCH=386 $(GO) build ./...
	$(GO) test -gcflags=all=-l ./internal/core

# smoke-analyze and chaos-wire are not among ci's prerequisites: their
# tests run under -race in race already; the targets stay for targeted runs.
ci: build fmt vet race loc-paths test-bench bench-smoke fuzz-smoke cover smoke-multiproc smoke-serve smoke-index unreached

# Multi-process smoke: the lab2 exercise with every rank as its own OS
# process over the socket transport (-pitransport=socket re-executes the
# binary per rank), then the merged CLOG-2 — collected over the wire by
# rank 0 — must still convert to SLOG-2, and nothing may have written a
# ".idx" beside it (the log carries its own block table). Then a
# thumbnail run over sockets whose two decompressors log about 4 800
# records each, more than two 64 KiB pages: its pages cross the wire one
# message each, and the merged log must verify (its block table is a
# scan's) and hold more blocks than ranks (blocks are cut every few
# hundred records, not one a rank).
smoke-multiproc:
	@mkdir -p out
	$(GO) build -o out/pilot-lab2 ./cmd/pilot-lab2
	./out/pilot-lab2 -pisvc=j -pitransport=socket -w 3 -num 3000 -clog out/lab2-multiproc.clog2
	$(GO) run ./cmd/clog2slog -q -o out/lab2-multiproc.slog2 out/lab2-multiproc.clog2
	$(GO) build -o out/pilot-thumbnail ./cmd/pilot-thumbnail
	./out/pilot-thumbnail -pisvc=j -pitransport=socket -w 2 -n 600 -iw 32 -ih 32 -clog out/thumb-multiproc.clog2
	$(GO) run ./cmd/clogdump -verify out/thumb-multiproc.clog2 > out/thumb-multiproc.verify
	cat out/thumb-multiproc.verify
	grep -q '^table: ok$$' out/thumb-multiproc.verify
	awk -F'[:,] *' '/^ranks:/ { seen = 1; if ($$4 <= $$2) { print "smoke-multiproc: " $$4 " blocks for " $$2 " ranks"; bad = 1 } } END { exit bad || !seen }' out/thumb-multiproc.verify
	test -z "$$(find out -maxdepth 1 -name '*.idx')"

# Trace-service smoke: stand pilot-serve up on a repository of the three
# golden traces (ephemeral port), built the way README's "Serving
# traces" says (the raw logs copied in), and run its end-to-end self-test
# — tiles byte-agree with a direct Query+render, legend/search answer,
# ETag revalidation 304s, each profile is its raw log's byte for byte,
# windowed profiles and verdicts answer from the raw logs, and hostile
# requests get HTTP errors instead of killing the server. Nothing may
# write a ".idx" into the repository.
smoke-serve:
	rm -rf out/serve-repo
	@mkdir -p out/serve-repo
	cp testdata/golden/*.slog2 testdata/golden/*.clog2 out/serve-repo/
	$(GO) run ./cmd/pilot-serve -repo out/serve-repo -smoke -q
	test -z "$$(find out/serve-repo -name '*.idx')"

# Block-table smoke: every committed log's block table must be the one a
# scan of the log makes, entry for entry (clogdump -verify exits 1 naming
# the first entry that differs). A copy cut short of its 22-byte footer
# (clog2.FooterSize) must report the degraded status, and so must a copy
# whose table is of the previous table version (CLOGTAB-02), which no
# reader reads. A copy under the previous format's magic must be refused,
# exit 1, naming that version, and so must a copy with one byte of block
# 1's rank field flipped (the block begins at byte 2188, its rank at 2189,
# and byte 2192 becomes 0xee), naming the rank: the reader holds every
# block to the ranks of its log. Runs on copies so the goldens stay
# pristine.
smoke-index:
	rm -rf out/idx-smoke
	@mkdir -p out/idx-smoke
	cp testdata/golden/*.clog2 internal/mpe/testdata/*.clog2 out/idx-smoke/
	$(GO) build -o out/clogdump ./cmd/clogdump
	for f in out/idx-smoke/*.clog2; do ./out/clogdump -verify $$f || exit 1; done
	head -c -22 testdata/golden/lab2.clog2 > out/idx-smoke/lab2-nofooter.clog2
	./out/clogdump -verify out/idx-smoke/lab2-nofooter.clog2 > out/idx-smoke/nofooter.txt
	cat out/idx-smoke/nofooter.txt
	grep -q '^table: degraded' out/idx-smoke/nofooter.txt
	{ printf CLOG-R0260; tail -c +11 testdata/golden/lab2.clog2; } > out/idx-smoke/lab2-r0260.clog2
	./out/clogdump -verify out/idx-smoke/lab2-r0260.clog2 2> out/idx-smoke/r0260.txt; test $$? -eq 1
	cat out/idx-smoke/r0260.txt
	grep -q 'CLOG-R0260 log; this version reads' out/idx-smoke/r0260.txt
	{ head -c -10 testdata/golden/lab2.clog2; printf CLOGTAB-02; } > out/idx-smoke/lab2-tab02.clog2
	./out/clogdump -verify out/idx-smoke/lab2-tab02.clog2 > out/idx-smoke/tab02.txt
	cat out/idx-smoke/tab02.txt
	grep -q '^table: degraded' out/idx-smoke/tab02.txt
	{ head -c 2192 testdata/golden/lab2.clog2; printf '\356'; tail -c +2194 testdata/golden/lab2.clog2; } > out/idx-smoke/lab2-rank.clog2
	./out/clogdump -verify out/idx-smoke/lab2-rank.clog2 2> out/idx-smoke/rank.txt; test $$? -eq 1
	cat out/idx-smoke/rank.txt
	grep -q 'a block of rank -301989887 in a log of 4 ranks' out/idx-smoke/rank.txt
	test -z "$$(find out/idx-smoke -name '*.idx')"

# Analyzer corpus smoke: the labelled chaos corpus. Each cell runs a
# real example program under a seeded fault plan and asserts its
# planted pathologies are all flagged (recall = 1.0), clean runs of all
# three programs produce zero findings (no false positives), and
# `pilot-analyze -diff` localizes a seeded stall, crash, and wire fault
# to the faulted rank. The diff-alignment properties (self-diff empty,
# identically-seeded replays diff clean) sweep the chaos matrix seeds.
# Race-clean.
smoke-analyze:
	$(GO) test -race -run '^TestAnalyzeCorpus|^TestAnalyzeDiffProp' -v .

# Statement-coverage floors: run the whole suite with cross-package
# instrumentation, then hold the observability-critical packages above
# their checked-in minimums (coverfloor exits 1 below a floor). The
# suite's output goes to out/cover.txt; when a test fails, its FAIL lines
# are printed from there.
cover:
	@mkdir -p out
	$(GO) test -coverprofile out/cover.out -coverpkg ./... ./... > out/cover.txt 2>&1 || \
		{ grep -E '^ *(--- )?FAIL' out/cover.txt; echo "cover: go test failed; its output is in out/cover.txt"; exit 1; }
	$(GO) run ./cmd/coverfloor \
		-floor repro/internal/stats=90 \
		-floor repro/internal/mpi=88 \
		-floor repro/internal/clog2=87 \
		-floor repro/internal/idx=85 \
		-floor repro/internal/analyze=85 \
		out/cover.out

# Non-test Go lines outside bench/ and out/: the total, then one line
# per package directory. The one definition of "lines" that CHANGES.md
# entries and ROADMAP 5(f) count by.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './out/*' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
	END { printf "%7d total\n", t; for (d in n) printf "%7d %s\n", n[d], d | "sort -k2" }'

# Go benchmarks beside the code they time, with allocs/op; nothing is
# written and nothing compared (the committed numbers are bench/'s, see
# BENCHMARK.json). The parallel CLOG-2 -> SLOG-2 pipeline at several
# worker counts, the bare CLOG-2 scan (MB/s), the fold under the profile
# (MB/s, next to the scan's) and the converter (B/op), both at -cpu 1,2,
# on a 500 000-record log, plus the MPE wrap-up merge (8 ranks of 1000
# state pairs, and 2 of 100 000: a rank's block in megabytes) and the
# record encoder under it; the thumbnail demo's codec on one 192×128 image
# (Synthetic, Encode at quality 75, Decode); the SLOG-2 codec both ways on
# a synthesized file of 200 000 drawables with cargo (MB/s, allocs/op: one
# to write, under four a frame to read); what a pilot-serve tile-cache
# miss costs (render + ETag + gzip, MB/s and B/op), the full-span tile of
# 100 000 drawables over 8 ranks as SVG and as JSON (render alone, MB/s
# and B/op), the gzip encoder alone over the golden tiles, against
# compress/gzip at BestSpeed, and over one large SVG and one large JSON
# tile (MB/s, ratio), and one JSON tile time against strconv; a 1 %
# windowed profile through the block table (records decoded and stepped
# over an op), at -cpu 1,2; and the three rows bench/ does not measure
# yet: a state pair written through to the spill, one live-metrics
# observation with the collector on and off, and a raw round trip per rank
# substrate (in-process, unix socket, TCP; the last two spawn the test
# binary as rank 1); a call-site location both ways (frame chain,
# runtime.Callers); last, the layer-knockout rows of a Pilot round trip
# (check level, MPE log, spill), at a fixed count because a logged row
# keeps its log in memory. bench-smoke runs every one of them once
# (-benchtime 1x), so a benchmark whose body fails at run time fails
# `make ci` instead of rotting.
bench-smoke: BENCHTIME = -benchtime 1x
bench bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkConvertParallel|BenchmarkBlockReaderScan|BenchmarkMPE_FinishMerge|BenchmarkF1_ConvertCLOGToSLOG|BenchmarkJpeglite' -benchmem $(BENCHTIME) .
	$(GO) test -run '^$$' -bench 'BenchmarkFoldProfile|BenchmarkConvertReader' -cpu 1,2 -benchmem $(BENCHTIME) .
	$(GO) test -run '^$$' -bench 'BenchmarkAppendRecord' -benchmem $(BENCHTIME) ./internal/clog2/
	$(GO) test -run '^$$' -bench 'BenchmarkWrite|BenchmarkRead' -benchmem $(BENCHTIME) ./internal/slog2/
	$(GO) test -run '^$$' -bench 'BenchmarkMailbox|BenchmarkTransportPingPong' -benchmem $(BENCHTIME) ./internal/mpi/
	$(GO) test -run '^$$' -bench 'BenchmarkSpillStatePair' -benchmem $(BENCHTIME) ./internal/mpe/
	$(GO) test -run '^$$' -bench 'BenchmarkSendObserved' -benchmem $(BENCHTIME) ./internal/stats/
	$(GO) test -run '^$$' -bench 'BenchmarkWindowedProfile' -cpu 1,2 -benchmem $(BENCHTIME) ./internal/stats/
	$(GO) test -run '^$$' -bench 'BenchmarkColdTile|BenchmarkFullSpanTile|BenchmarkGzip|BenchmarkTileFloat' -benchmem $(BENCHTIME) ./internal/serve/
	$(GO) test -run '^$$' -bench 'BenchmarkCallerLoc' -benchmem $(BENCHTIME) ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkChannelRoundTrip' -benchmem $(or $(BENCHTIME),-benchtime 100000x) .

# Short fuzz pass over every target fuzz-smoke runs (seed corpora run in
# plain `make test` as well). Minimization is bounded to 100 runs an input
# (-fuzzminimizetime 100x, a count, so the work does not depend on the
# box): by default the engine spends up to 60 s minimizing each input that
# adds coverage before it counts another execution, and on the golden seeds
# of FuzzAnalyze and FuzzReadSLOG2 that ate the whole budget.
fuzz:
	$(GO) test ./internal/clog2/ -fuzz FuzzReadFile -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/clog2/ -fuzz FuzzSalvageSegments -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/mpe/ -fuzz FuzzSalvageFragment -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/slog2/ -fuzz FuzzReadSLOG2 -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/clog2/ -fuzz FuzzReadTable -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/analyze/ -fuzz FuzzAnalyze -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/jumpshot/ -fuzz FuzzAppendFixed -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/serve/ -fuzz FuzzGzip -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/serve/ -fuzz FuzzTileFloat -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/jpeglite/ -fuzz FuzzDecode -fuzztime 30s -fuzzminimizetime 100x

# CI fuzz smoke: 5 seconds of coverage-guided fuzzing per target. Go only
# accepts one -fuzz target per invocation, hence one line per target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFile$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/clog2/
	$(GO) test -run '^$$' -fuzz '^FuzzSalvageSegments$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/clog2/
	$(GO) test -run '^$$' -fuzz '^FuzzSalvageFragment$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/mpe/
	$(GO) test -run '^$$' -fuzz '^FuzzReadSLOG2$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/slog2/
	$(GO) test -run '^$$' -fuzz '^FuzzReadTable$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/clog2/
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyze$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/analyze/
	$(GO) test -run '^$$' -fuzz '^FuzzAppendFixed$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/jumpshot/
	$(GO) test -run '^$$' -fuzz '^FuzzGzip$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzTileFloat$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/jpeglite/

# The kill/corrupt chaos harness: a real example under RobustLog is
# SIGKILLed at seeded points, its spill files further damaged, and every
# seed must still salvage into a convertible SLOG-2. Race-clean.
chaos:
	$(GO) test -race -run '^TestChaosKillSalvage$$' -v .

# The wire-fault chaos harness: lab2, thumbnail and collisions run over
# the multi-process socket transport while the seeded injector delays,
# corrupts, duplicates, drops, tears and stalls frames on every link.
# Every cell must terminate diagnosed within its deadline — transparent
# recovery with the clean-run outcome, or a FaultAbortCode abort whose
# salvaged log still converts — and a replayed seed must reproduce the
# same bucket and outcome. Cells run sequentially (each spawns its own
# rank processes). Race-clean.
chaos-wire:
	$(GO) test -race -run '^TestChaosWireSweep$$|^TestChaosWireReplay$$' -v .

# Functions declared outside package main that no program links, held to
# the committed list in testdata/unreached.txt. Every main under cmd/,
# examples/ and bench/ is built with inlining off into out/unreached/bin;
# each function a package's `go list -export` archive defines from its
# source (compiler wrappers are <autogenerated> there) that is missing from
# the union of the binaries' text symbols is unreached. Closures, generic
# shape instantiations and package init are skipped. The target fails on
# an unreached function the list does not name, and on a listed one that a
# program links again or that no longer exists: each entry says why it
# stays (public Pilot API under pilot's aliases, a test facility the tests
# of several packages share), so the list can only shrink.
UNREACHED = out/unreached
UNREACHED_LIST = testdata/unreached.txt
unreached:
	rm -rf $(UNREACHED)
	@mkdir -p $(UNREACHED)/bin
	$(GO) build -gcflags=all=-l -o $(UNREACHED)/bin/ ./cmd/... ./examples/...
	$(GO) build -C bench -gcflags=all=-l -o $(CURDIR)/$(UNREACHED)/bin/bench .
	for b in $(UNREACHED)/bin/*; do $(GO) tool nm $$b; done | \
	awk '$$2 == "T" || $$2 == "t" { print $$3 }' | LC_ALL=C sort -u > $(UNREACHED)/linked
	{ $(GO) list -export -gcflags=all=-l -f '{{if ne .Name "main"}}{{.Export}}{{end}}' ./... && \
	  $(GO) list -C bench -export -gcflags=all=-l -f '{{if ne .Name "main"}}{{.Export}}{{end}}' ./...; } | \
	while read a; do [ -z "$$a" ] || $(GO) tool objdump $$a; done | \
	awk '$$1 == "TEXT" && $$3 != "<autogenerated>" && $$2 ~ /^repro\// { sub(/\(SB\)$$/, "", $$2); print $$2 }' | \
	grep -vE '\.(func|deferwrap|gowrap)[0-9]|[[·]|^repro/[^.]*\.init(\.[0-9]+)?$$' | LC_ALL=C sort -u > $(UNREACHED)/declared
	LC_ALL=C comm -23 $(UNREACHED)/declared $(UNREACHED)/linked > $(UNREACHED)/found
	sed 's/[[:space:]]*#.*//; /^$$/d' $(UNREACHED_LIST) | LC_ALL=C sort > $(UNREACHED)/listed
	{ LC_ALL=C comm -23 $(UNREACHED)/found $(UNREACHED)/listed | sed 's|^|unreached, not in $(UNREACHED_LIST): |'; \
	  LC_ALL=C comm -13 $(UNREACHED)/found $(UNREACHED)/listed | sed 's|^|in $(UNREACHED_LIST), linked or gone: |'; } > $(UNREACHED)/report
	@if [ -s $(UNREACHED)/report ]; then cat $(UNREACHED)/report; exit 1; fi
	@echo "unreached: the $$(wc -l < $(UNREACHED)/listed) listed function(s) and no other"

clean:
	rm -rf out
