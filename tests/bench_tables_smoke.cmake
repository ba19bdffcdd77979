# Smoke-runs one encoder-ablation main (paper Tables V-VII; BENCH is the
# binary's path) at a small scale: it must exit 0 and print one table per
# dataset (4) with ROWS result rows in all.
#
#   cmake -DBENCH=build/bench/bench_table7_ensemble -DROWS=12 \
#         -P bench_tables_smoke.cmake
set(ENV{WHITENREC_SCALE} 0.2)
set(ENV{WHITENREC_EPOCHS} 1)
execute_process(COMMAND ${BENCH} --threads 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "${BENCH}: exit status ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(REGEX MATCHALL "\n=== Table [^\n]* ===\n" tables "${out}")
list(LENGTH tables num_tables)
# A row is a model name followed by its metrics, each printed as %12.4f.
string(REGEX MATCHALL "\n[^\n]+( +-?[0-9]+\\.[0-9][0-9][0-9][0-9])+"
       rows "${out}")
list(LENGTH rows num_rows)
if(NOT num_tables EQUAL 4 OR NOT num_rows EQUAL ROWS)
  message(FATAL_ERROR "${BENCH}: want 4 tables and ${ROWS} rows, got "
          "${num_tables} tables and ${num_rows} rows:\n${out}")
endif()
