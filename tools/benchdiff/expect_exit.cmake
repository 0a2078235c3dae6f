# Runs benchdiff and passes only on one exact exit code, so a fixture test
# that expects a regression (exit 1) cannot pass on an I/O or usage error
# (exit 2).  Usage:
#   cmake -DBENCHDIFF=<exe> -DBASELINE=<file> -DINPUT=<file> -DEXPECT=<code>
#         -P expect_exit.cmake
execute_process(COMMAND ${BENCHDIFF} --baseline ${BASELINE} ${INPUT}
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "benchdiff exited ${rc}, expected ${EXPECT}")
endif()
