# Run a command and require an exact exit status plus a message.
#
#   cmake -DCMD="prog arg..." -DRC=2 -DREGEX="text" -P expect_exit.cmake
#
# ctest's PASS_REGULAR_EXPRESSION ignores the exit status and WILL_FAIL
# accepts any non-zero one, so neither can tell a clean refusal from a
# crash; this script checks both halves.
separate_arguments(cmd UNIX_COMMAND "${CMD}")
execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${RC}")
    message(FATAL_ERROR "expected exit ${RC}, got '${rc}'\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${REGEX}")
    message(FATAL_ERROR "output does not match '${REGEX}':\n${out}${err}")
endif()
