# Checks experiment_cli's model table (CLI is the binary's path) against the
# 17 model names and the name() each one reports.
#
#   MODE=help: `--help` exits 0 and lists every name, the default
#              (whitenrec+) first.
#   MODE=run:  every `--model=NAME` builds its model and prints that model's
#              name() in the "model: ..." line; no --model means whitenrec+.
#
#   cmake -DCLI=build/examples/experiment_cli -DMODE=run -P cli_model_table.cmake
set(models
  "whitenrec+=WhitenRec+(T)"
  "whitenrec=WhitenRec(T)"
  "sasrec_id=SASRec(ID)"
  "sasrec_t=SASRec(T)"
  "sasrec_tid=SASRec(T+ID)"
  "cl4srec=CL4SRec(ID)"
  "s3rec=S3-Rec(T+ID)"
  "unisrec=UniSRec(T)"
  "unisrec_tid=UniSRec(T+ID)"
  "vqrec=VQRec(T)"
  "fdsa=FDSA(T+ID)"
  "gru4rec=GRU4Rec(ID)"
  "bert4rec=BERT4Rec(ID)"
  "fpmc=FPMC(ID)"
  "caser=Caser(ID)"
  "grcn=GRCN(T+ID)"
  "bm3=BM3(T+ID)")

function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${ARGN}: exit status ${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

if(MODE STREQUAL "help")
  run_cli(--help)
  if(NOT out MATCHES "\nmodels \\(default first\\):\n  whitenrec\\+ ")
    message(FATAL_ERROR "--help does not list whitenrec+ first:\n${out}")
  endif()
  foreach(entry IN LISTS models)
    string(REGEX REPLACE "=.*" "" name "${entry}")
    string(REGEX REPLACE "([+])" "\\\\\\1" pattern "${name}")
    if(NOT out MATCHES " ${pattern}( |\n)")
      message(FATAL_ERROR "--help does not list ${name}:\n${out}")
    endif()
  endforeach()
elseif(MODE STREQUAL "run")
  run_cli(--scale=0.1 --epochs=0)
  if(NOT out MATCHES "\nmodel: WhitenRec\\+\\(T\\)\n")
    message(FATAL_ERROR "the default model is not whitenrec+:\n${out}")
  endif()
  foreach(entry IN LISTS models)
    string(REGEX REPLACE "=.*" "" name "${entry}")
    string(REGEX REPLACE "^[^=]*=" "" want "${entry}")
    run_cli(--model=${name} --scale=0.1 --epochs=0)
    string(FIND "${out}" "\nmodel: ${want}\n" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "--model=${name} does not print 'model: ${want}':\n${out}")
    endif()
  endforeach()
else()
  message(FATAL_ERROR "MODE must be help or run, got '${MODE}'")
endif()
