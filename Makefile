# Convenience targets; everything is plain dune underneath.

.PHONY: all build test test-slow bench bench-json tables examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Long-running searches (n >= 7 reference runs, 2e9-node shuffle
# refutations) excluded from tier-1.
test-slow:
	dune build @search-slow

bench:
	dune exec bench/main.exe

# Engine microbenchmarks only; writes name -> ns/op to BENCH_engine.json
# so successive PRs have a perf trajectory to compare against (plus the
# eval-many row: 8192 masks through one compiled network). The same
# run times the exact-bounds search (pruned vs reference, 1 vs K
# domains, checkpointing, and sharded vs single-process) into
# BENCH_search.json, the static analyzer's throughput
# (networks/sec, comparators/sec) into BENCH_analysis.json, and the
# serve scheduler's 32-client batched-vs-sequential throughput and
# lane-fill ratio into BENCH_serve.json, and the evolutionary search's
# population-fitness kernel (nets/sec at 1 vs K domains), end-to-end
# n=6 rediscovery run, and differential-fuzzer checking rate into
# BENCH_evolve.json. All files must carry the global observability
# counters (obs/ rows) alongside the timings.
bench-json:
	SNLB_BENCH_JSON=BENCH_engine.json SNLB_BENCH_SEARCH_JSON=BENCH_search.json SNLB_BENCH_ANALYSIS_JSON=BENCH_analysis.json SNLB_BENCH_SERVE_JSON=BENCH_serve.json SNLB_BENCH_EVOLVE_JSON=BENCH_evolve.json dune exec bench/main.exe
	grep -q '"obs/engine.cache.hits"' BENCH_engine.json
	grep -q '"obs/engine.cache.evictions"' BENCH_engine.json
	grep -q '"engine/eval-many/wall_ms"' BENCH_engine.json
	grep -q '"search/n=6/pruned/domains=1/subsumed"' BENCH_search.json
	grep -q '"obs/search.nodes"' BENCH_search.json
	grep -q '"obs/analysis.redundant_moves"' BENCH_search.json
	grep -q '"search/n=7/pruned-ckpt/domains=1/wall_ms"' BENCH_search.json
	grep -q '"obs/checkpoint.writes"' BENCH_search.json
	grep -q '"obs/checkpoint.bytes"' BENCH_search.json
	grep -q '"obs/checkpoint.write_ms.mean"' BENCH_search.json
	grep -q '"obs/arena.states"' BENCH_search.json
	grep -q '"obs/arena.probes"' BENCH_search.json
	grep -q '"obs/arena.bytes"' BENCH_search.json
	grep -q '"search/n=8/shard/single/wall_ms"' BENCH_search.json
	grep -q '"search/n=8/shard/shards=4/wall_ms"' BENCH_search.json
	grep -q '"obs/shard.spawned"' BENCH_search.json
	grep -q '"obs/shard.completed"' BENCH_search.json
	@if [ "$$(nproc)" -ge 2 ]; then \
	  awk -F': ' '/"search\/n=8\/shard_speedup"/ { exit !($$2 + 0 >= 1.5) }' BENCH_search.json || { echo "shard speedup below 1.5x on a multi-core host" >&2; exit 1; }; \
	else \
	  echo "bench-json: single-core host (nproc=1): no parallel speedup is physically possible; relaxing the 4-shard speedup floor from 1.5x to a 0.5x overhead sanity bound"; \
	  awk -F': ' '/"search\/n=8\/shard_speedup"/ { exit !($$2 + 0 >= 0.5) }' BENCH_search.json || { echo "sharded run more than 2x slower than single-process" >&2; exit 1; }; \
	fi
	grep -q '"analysis/bitonic-n=16/networks_per_s"' BENCH_analysis.json
	grep -q '"analysis/bitonic-n=32/comparators_per_s"' BENCH_analysis.json
	grep -q '"obs/analysis.networks"' BENCH_analysis.json
	grep -q '"serve/verify/batched/requests_per_s"' BENCH_serve.json
	grep -q '"serve/verify/speedup"' BENCH_serve.json
	grep -q '"serve/eval/lane_fill_ratio"' BENCH_serve.json
	grep -q '"obs/serve.verify.sweeps"' BENCH_serve.json
	grep -q '"obs/serve.batch.rounds"' BENCH_serve.json
	awk -F': ' '/"serve\/verify\/speedup"/ { exit !($$2 + 0 >= 3.0) }' BENCH_serve.json
	grep -q '"evolve/fitness/n=8/pop=512/domains=1/nets_per_s"' BENCH_evolve.json
	grep -q '"evolve/fitness/speedup"' BENCH_evolve.json
	grep -q '"evolve/run/n=6/pop=256/wall_ms"' BENCH_evolve.json
	grep -q '"fuzz/nets_per_s"' BENCH_evolve.json
	grep -q '"obs/evolve.evals"' BENCH_evolve.json
	grep -q '"obs/evolve.generations"' BENCH_evolve.json
	grep -q '"obs/fuzz.networks"' BENCH_evolve.json
	awk -F': ' '/"evolve\/fitness\/n=8\/pop=512\/domains=1\/nets_per_s"/ { exit !($$2 + 0 >= 1000.0) }' BENCH_evolve.json

tables:
	dune exec bin/snlb_cli.exe -- table all --quick

examples:
	dune exec examples/quickstart.exe
	dune exec examples/fooling_pair.exe
	dune exec examples/shuffle_vs_batcher.exe
	dune exec examples/adaptive_duel.exe
	dune exec examples/zero_one_audit.exe
	dune exec examples/ascend_machine.exe

clean:
	dune clean
