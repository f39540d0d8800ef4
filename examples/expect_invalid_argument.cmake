# ctest script: runs EXE with ARGS ('|'-separated) and passes only if the
# run is refused by name: exit code 1, nothing on stdout, and exactly one
# line on stderr, which carries `[invalid_argument]` and every
# comma-separated string of NAMES.
#
# Invoked as:
#   cmake -DEXE=<binary> -DARGS=<a|b|...> -DNAMES=<n1,n2,...>
#         -P expect_invalid_argument.cmake

foreach(var EXE ARGS NAMES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_invalid_argument.cmake: ${var} not set")
  endif()
endforeach()

string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(run "${EXE} ${args}")
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "${run}: exit ${rc}, expected 1\nstderr: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${run}: printed to stdout before failing:\n${out}")
endif()
string(REGEX REPLACE "\n$" "" line "${err}")
if(line STREQUAL "" OR line MATCHES "\n")
  message(FATAL_ERROR "${run}: expected one stderr line, got:\n${err}")
endif()
string(FIND "${line}" "[invalid_argument]" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${run}: not an [invalid_argument] error: ${line}")
endif()
string(REPLACE "," ";" names "${NAMES}")
foreach(name ${names})
  string(FIND "${line}" "${name}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${run}: stderr does not name '${name}': ${line}")
  endif()
endforeach()
