# Runs TOOL with the space-separated ARGS and passes when it exits with
# status 1 and its stderr matches the regular expression EXPECT: the
# contract of a command-line tool that reports a bad request instead of
# aborting on it.
#
#   cmake -DTOOL=<program> "-DARGS=<arg> ..." "-DEXPECT=<regex>" \
#         -P expect_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE status ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
