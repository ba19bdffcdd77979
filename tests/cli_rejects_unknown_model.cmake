# Runs `experiment_cli --model=nosuch` (CLI is the binary's path) and passes
# only if it exits 2 naming --model before the "dataset <name>: ..." line,
# i.e. the name is checked before any dataset is generated or loaded.
#
#   cmake -DCLI=build/examples/experiment_cli -P cli_rejects_unknown_model.cmake
execute_process(
  COMMAND ${CLI} --model=nosuch --scale=0.1 --epochs=0
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "exit status ${rc}, want 2\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "^--model: ")
  message(FATAL_ERROR "stderr does not name --model:\n${err}")
endif()
if(out MATCHES "dataset ")
  message(FATAL_ERROR "a dataset was built before --model was checked:\n${out}")
endif()
